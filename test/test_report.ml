(* Tests for gat_report: the cheap (no-sweep) experiments render with
   the expected content; the sweep-based experiments are covered by the
   bench harness, not unit tests, to keep `dune runtest` fast. *)

(* Keep sweeps honest (and the user's cache directory untouched): the
   compile-count assertions below require real compiles, not persistent
   cache hits. *)
let () = Gat_tuner.Disk_cache.set_enabled false

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let check_contains s needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains s needle))
    needles

let test_table1 () =
  check_contains (Gat_report.Table1.render ())
    [ "M2050"; "K20"; "M40"; "P100"; "Warps per mp"; "Fermi"; "Pascal"; "49152" ]

let test_table2 () =
  check_contains (Gat_report.Table2.render ())
    [ "FPIns32"; "LogSinCos"; "192"; "SM20"; "SM60"; "MEM"; "CTRL" ]

let test_table3 () =
  check_contains (Gat_report.Table34.render_table3 ())
    [ "TC"; "BC"; "UIF"; "PL"; "SC"; "CFLAGS"; "5120" ]

let test_fig3 () =
  let s = Gat_report.Table34.render_fig3 () in
  check_contains s [ "PerfTuning"; "param TC[]"; "-use_fast_math" ];
  (* and it must re-parse *)
  match Gat_ir.Tuning_spec.parse s with
  | Ok spec ->
      Alcotest.(check int) "25600 raw points" 25600
        (Gat_ir.Tuning_spec.cardinality spec)
  | Error e -> Alcotest.fail e

let test_table4 () =
  check_contains (Gat_report.Table34.render_table4 ())
    [ "atax"; "bicg"; "ex14fj"; "matvec2d"; "Linear solvers"; "y = A^T (Ax)" ]

let test_fig1_monotone () =
  let points = Gat_report.Fig1.study () in
  Alcotest.(check int) "six points" 6 (List.length points);
  let rec increasing = function
    | (a : Gat_report.Fig1.point) :: (b :: _ as rest) ->
        a.Gat_report.Fig1.slowdown <= b.Gat_report.Fig1.slowdown +. 1e-9
        && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cost grows as lanes shrink" true (increasing points);
  let last = List.nth points 5 in
  Alcotest.(check int) "down to 1 lane" 1 last.Gat_report.Fig1.active_lanes;
  Alcotest.(check bool) "serialization loss is large" true
    (last.Gat_report.Fig1.slowdown > 8.0)

let test_table7_structure () =
  let rows = Gat_report.Table7.rows () in
  Alcotest.(check int) "4 kernels x 4 archs" 16 (List.length rows);
  List.iter
    (fun (r : Gat_report.Table7.row) ->
      Alcotest.(check bool) "threads non-empty" true
        (r.Gat_report.Table7.suggestion.Gat_core.Suggest.threads <> []);
      Alcotest.(check bool) "occ in (0,1]" true
        (r.Gat_report.Table7.suggestion.Gat_core.Suggest.occupancy > 0.0
        && r.Gat_report.Table7.suggestion.Gat_core.Suggest.occupancy <= 1.0))
    rows

let test_table7_matches_paper_kepler () =
  let rows = Gat_report.Table7.rows () in
  let kepler_atax =
    List.find
      (fun (r : Gat_report.Table7.row) ->
        r.Gat_report.Table7.kernel = "atax" && r.Gat_report.Table7.family = "Kepler")
      rows
  in
  Alcotest.(check (list int)) "Kepler T* = paper's" [ 128; 256; 512; 1024 ]
    kepler_atax.Gat_report.Table7.suggestion.Gat_core.Suggest.threads

let test_table6_structure () =
  let rows = Gat_report.Table6.rows () in
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  List.iter
    (fun (r : Gat_report.Table6.row) ->
      Alcotest.(check bool) "errors non-negative" true
        (r.Gat_report.Table6.flops_err >= 0.0
        && r.Gat_report.Table6.mem_err >= 0.0
        && r.Gat_report.Table6.ctrl_err >= 0.0);
      Alcotest.(check bool) "intensity positive" true
        (r.Gat_report.Table6.intensity > 0.0))
    rows

let test_table6_ex14fj_most_intense () =
  let rows = Gat_report.Table6.rows () in
  let intensity name =
    (List.find (fun (r : Gat_report.Table6.row) -> r.Gat_report.Table6.kernel = name) rows)
      .Gat_report.Table6.intensity
  in
  Alcotest.(check bool) "ex14fj > atax" true (intensity "ex14fj" > intensity "atax");
  Alcotest.(check bool) "ex14fj > bicg" true (intensity "ex14fj" > intensity "bicg")

let test_fig7_render () =
  let s = Gat_report.Fig7.render ~gpu:Gat_arch.Gpu.k20 () in
  check_contains s
    [ "current"; "potential"; "occupancy vs block size"; "occupancy vs registers" ]

let test_experiments_registry () =
  Alcotest.(check int) "14 experiments" 14 (List.length Gat_report.Experiments.all);
  Alcotest.(check bool) "find table5" true
    (Gat_report.Experiments.find "TABLE5" <> None);
  Alcotest.(check bool) "find missing" true (Gat_report.Experiments.find "fig9" = None);
  List.iter
    (fun (e : Gat_report.Experiments.t) ->
      Alcotest.(check bool) ("id non-empty " ^ e.Gat_report.Experiments.id) true
        (String.length e.Gat_report.Experiments.id > 0))
    Gat_report.Experiments.all

let test_context_defaults () =
  Alcotest.(check int) "seed" 42 Gat_report.Context.seed;
  Alcotest.(check int) "gpus" 4 (List.length Gat_report.Context.gpus);
  Alcotest.(check int) "kernels" 4 (List.length Gat_report.Context.kernels);
  Alcotest.(check int) "eval size of atax" 128
    (Gat_report.Context.eval_size Gat_workloads.Workloads.atax)

let test_context_memoized_and_compile_shared () =
  (* One real kernel/device pair end to end: the multi-size sweep
     behind Fig. 4 / Table V must compile each of the 5,120 parameter
     points exactly once (the seed compiled them once per input size),
     and the derived rankings must be computed once and shared. *)
  let kernel = Gat_workloads.Workloads.atax and gpu = Gat_arch.Gpu.k20 in
  Gat_tuner.Tuner.clear_cache ();
  let compiles =
    let c0 = Gat_util.Metrics.(value (counter "compile.count")) in
    fun () -> Gat_util.Metrics.(value (counter "compile.count")) - c0
  in
  let sweeps = Gat_report.Context.sweeps kernel gpu in
  Alcotest.(check int) "five input sizes" 5 (List.length sweeps);
  Alcotest.(check int) "each triple compiled exactly once" 5120 (compiles ());
  (* The single-size sweep and both rankings ride on the same caches:
     no further compilation, and memoized values are physically shared. *)
  ignore (Gat_report.Context.sweep kernel gpu);
  let r1 = Gat_report.Context.pooled_ranking kernel gpu in
  let r2 = Gat_report.Context.pooled_ranking kernel gpu in
  Alcotest.(check bool) "pooled_ranking memoized" true (r1 == r2);
  Alcotest.(check bool) "ranking memoized" true
    (Gat_report.Context.ranking kernel gpu == Gat_report.Context.ranking kernel gpu);
  Alcotest.(check bool) "sweeps memoized" true
    (Gat_report.Context.sweeps kernel gpu == sweeps);
  Alcotest.(check int) "no recompilation for derived reports" 5120
    (compiles ())

let () =
  Alcotest.run "gat_report"
    [
      ( "static tables",
        [
          Alcotest.test_case "table1" `Quick test_table1;
          Alcotest.test_case "table2" `Quick test_table2;
          Alcotest.test_case "table3" `Quick test_table3;
          Alcotest.test_case "fig3" `Quick test_fig3;
          Alcotest.test_case "table4" `Quick test_table4;
        ] );
      ( "analysis outputs",
        [
          Alcotest.test_case "fig1 monotone" `Quick test_fig1_monotone;
          Alcotest.test_case "table7 structure" `Quick test_table7_structure;
          Alcotest.test_case "table7 kepler" `Quick test_table7_matches_paper_kepler;
          Alcotest.test_case "table6 structure" `Slow test_table6_structure;
          Alcotest.test_case "table6 intensity" `Slow test_table6_ex14fj_most_intense;
          Alcotest.test_case "fig7" `Quick test_fig7_render;
        ] );
      ( "registry",
        [
          Alcotest.test_case "experiments" `Quick test_experiments_registry;
          Alcotest.test_case "context" `Quick test_context_defaults;
          Alcotest.test_case "context memoized + compile-shared" `Slow
            test_context_memoized_and_compile_shared;
        ] );
    ]
