(* Tests for gat_tuner: spaces, the measurement protocol, ranking, and
   every search strategy — including the paper's static and rule-based
   pruned searches.

   Search-algorithm tests use a synthetic objective (a deterministic
   function of the parameters) so they are fast and their optimum is
   known exactly. *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

module Params = Gat_compiler.Params
module Space = Gat_tuner.Space
module Search = Gat_tuner.Search
module Strategies = Gat_tuner.Strategies

(* The persistent sweep cache would satisfy sweeps without compiling,
   breaking the compile-count assertions below (and polluting the
   user's cache directory).  Tests exercise it via test_disk_cache. *)
let () = Gat_util.Store.set_enabled Gat_tuner.Disk_cache.cache false

(* A small space with 96 points. *)
let small_space =
  {
    Space.tc = [ 64; 128; 256; 512 ];
    bc = [ 24; 96 ];
    uif = [ 1; 2; 3 ];
    pl = [ 16; 48 ];
    sc = [ 1 ];
    cflags = [ false; true ];
  }

(* Synthetic objective with a unique optimum at TC=256, BC=96, UIF=2,
   PL=16, fast-math on. *)
let synthetic params =
  let p = float_of_int in
  Some
    (Float.abs (p params.Params.threads_per_block -. 256.0)
    +. Float.abs (p params.Params.block_count -. 96.0)
    +. (10.0 *. Float.abs (p params.Params.unroll -. 2.0))
    +. (if params.Params.l1_pref_kb = 16 then 0.0 else 5.0)
    +. if params.Params.fast_math then 0.0 else 3.0)

let synthetic_best = 0.0

(* ---- Space ---- *)

let test_space_paper_cardinality () =
  Alcotest.(check int) "5120 variants" 5120 (Space.cardinality Space.paper)

let test_space_paper_axes () =
  Alcotest.(check int) "32 thread counts" 32 (List.length Space.paper.Space.tc);
  Alcotest.(check int) "8 block counts" 8 (List.length Space.paper.Space.bc);
  Alcotest.(check (list int)) "SC pinned" [ 1 ] Space.paper.Space.sc

let test_space_points_count () =
  Alcotest.(check int) "points = cardinality" (Space.cardinality small_space)
    (List.length (Space.points small_space))

let test_space_points_unique () =
  let points = Space.points small_space in
  let unique = List.sort_uniq Params.compare points in
  Alcotest.(check int) "no duplicates" (List.length points) (List.length unique)

let test_space_restrict_tc () =
  let restricted = Space.restrict_tc small_space ~keep:(fun tc -> tc >= 256) in
  Alcotest.(check (list int)) "kept" [ 256; 512 ] restricted.Space.tc;
  let replaced = Space.with_tc small_space [ 32 ] in
  Alcotest.(check (list int)) "replaced" [ 32 ] replaced.Space.tc

(* [Space.mem] agrees with membership in the enumerated points, on
   random sub-spaces of the paper space and for points on and off
   their axes. *)
let prop_space_mem_matches_points =
  let open QCheck.Gen in
  let p = Space.paper in
  let sub axis =
    let maybe x = map (fun keep -> if keep then Some x else None) bool in
    map (List.filter_map Fun.id) (flatten_l (List.map maybe axis))
  in
  let coord axis off = oneofl (off :: axis) in
  let gen =
    let* tc = sub p.Space.tc and* bc = sub p.Space.bc
    and* uif = sub p.Space.uif and* pl = sub p.Space.pl
    and* cflags = sub p.Space.cflags in
    let space = { p with Space.tc; bc; uif; pl; cflags } in
    let+ threads_per_block = coord p.Space.tc 33
    and+ block_count = coord p.Space.bc 7
    and+ unroll = coord p.Space.uif 9
    and+ l1_pref_kb = coord p.Space.pl 32
    and+ staging = coord p.Space.sc 2
    and+ fast_math = bool in
    ( space,
      Params.make ~threads_per_block ~block_count ~unroll ~l1_pref_kb ~staging
        ~fast_math () )
  in
  QCheck.Test.make ~name:"mem iff in points" ~count:300
    (QCheck.make
       ~print:(fun (s, pt) -> Space.to_string s ^ " / " ^ Params.to_string pt)
       gen)
    (fun (space, point) ->
      Space.mem space point = List.mem point (Space.points space))

let test_space_of_spec_defaults () =
  let spec = Gat_ir.Tuning_spec.parse_exn "param TC[] = [64,128];" in
  let s = Space.of_spec spec in
  Alcotest.(check (list int)) "tc" [ 64; 128 ] s.Space.tc;
  Alcotest.(check (list int)) "default uif" [ 1 ] s.Space.uif;
  Alcotest.(check (list bool)) "default cflags" [ false ] s.Space.cflags

(* ---- Search scaffolding ---- *)

let test_counting_objective () =
  let obj, count = Search.counting_objective synthetic in
  ignore (obj (Params.make ()));
  ignore (obj (Params.make ()));
  Alcotest.(check int) "two calls" 2 (count ())

let test_memoized_objective () =
  let calls = ref 0 in
  let obj =
    Search.memoized_objective (fun p ->
        incr calls;
        synthetic p)
  in
  let p = Params.make () in
  ignore (obj p);
  ignore (obj p);
  Alcotest.(check int) "underlying called once" 1 !calls

let test_params_of_point_clamps () =
  let axes = Search.axes_of_space small_space in
  let p = Search.params_of_point axes [| 99; -1; 0; 0; 0; 0 |] in
  Alcotest.(check int) "tc clamped to last" 512 p.Params.threads_per_block;
  Alcotest.(check int) "bc clamped to first" 24 p.Params.block_count

(* ---- Strategies on the synthetic objective ---- *)

let check_outcome name (o : Search.outcome) ~max_best ~max_evals =
  (match o.Search.best_params with
  | Some _ -> ()
  | None -> Alcotest.failf "%s found nothing" name);
  Alcotest.(check bool)
    (name ^ " best good enough")
    true
    (o.Search.best_time <= max_best);
  Alcotest.(check bool)
    (name ^ " within evaluation budget")
    true
    (o.Search.evaluations <= max_evals)

let test_exhaustive_finds_optimum () =
  let o = Strategies.exhaustive synthetic small_space in
  check_outcome "exhaustive" o ~max_best:synthetic_best ~max_evals:96;
  Alcotest.(check int) "evaluates everything" 96 o.Search.evaluations;
  match o.Search.best_params with
  | Some p ->
      Alcotest.(check int) "tc" 256 p.Params.threads_per_block;
      Alcotest.(check int) "uif" 2 p.Params.unroll;
      Alcotest.(check bool) "fm" true p.Params.fast_math
  | None -> Alcotest.fail "no best"

let test_random_search () =
  let rng = Gat_util.Rng.create 3 in
  let o = Strategies.random ~budget:60 rng synthetic small_space in
  check_outcome "random" o ~max_best:200.0 ~max_evals:60

let test_annealing () =
  let rng = Gat_util.Rng.create 4 in
  let o = Strategies.annealing ~iterations:200 rng synthetic small_space in
  (* Annealing's single-axis moves home in on the synthetic optimum. *)
  check_outcome "annealing" o ~max_best:50.0 ~max_evals:250

let test_genetic () =
  let rng = Gat_util.Rng.create 5 in
  let o = Strategies.genetic ~generations:10 ~population:16 rng synthetic small_space in
  check_outcome "genetic" o ~max_best:50.0 ~max_evals:(16 * 11)

let test_nelder_mead () =
  let rng = Gat_util.Rng.create 6 in
  let o = Strategies.nelder_mead ~restarts:3 rng synthetic small_space in
  check_outcome "nelder-mead" o ~max_best:100.0 ~max_evals:2000

let test_exhaustive_all_invalid () =
  let o = Strategies.exhaustive (fun _ -> None) small_space in
  Alcotest.(check bool) "no params" true (o.Search.best_params = None);
  Alcotest.(check bool) "infinite best" true (o.Search.best_time = infinity)

(* ---- Static pruning (the paper's search) ---- *)

let test_static_prune_reductions () =
  (* Kepler suggests 4 of 32 thread counts: 87.5% static, 93.75% with
     the rule — the numbers the paper reports. *)
  match
    Gat_tuner.Static_search.prune Gat_workloads.Workloads.atax Gat_arch.Gpu.k20
      Space.paper
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check (float 1e-6)) "static 87.5%" 0.875
        (Gat_tuner.Static_search.reduction ~original:Space.paper
           ~pruned:p.Gat_tuner.Static_search.static_space);
      Alcotest.(check (float 1e-6)) "rules 93.75%" 0.9375
        (Gat_tuner.Static_search.reduction ~original:Space.paper
           ~pruned:p.Gat_tuner.Static_search.rule_space)

let test_static_prune_subset () =
  match
    Gat_tuner.Static_search.prune Gat_workloads.Workloads.bicg Gat_arch.Gpu.m2050
      Space.paper
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      List.iter
        (fun tc ->
          Alcotest.(check bool) "pruned tc in original" true
            (List.mem tc Space.paper.Space.tc))
        p.Gat_tuner.Static_search.static_space.Space.tc;
      List.iter
        (fun tc ->
          Alcotest.(check bool) "rule tc in static" true
            (List.mem tc p.Gat_tuner.Static_search.static_space.Space.tc))
        p.Gat_tuner.Static_search.rule_space.Space.tc

let test_static_prune_fermi_t_star () =
  match
    Gat_tuner.Static_search.prune Gat_workloads.Workloads.atax Gat_arch.Gpu.m2050
      Space.paper
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check (list int)) "Fermi suggestion" [ 192; 256; 384; 512; 768 ]
        p.Gat_tuner.Static_search.static_space.Space.tc

let test_static_search_runs () =
  let o =
    Gat_tuner.Static_search.run Gat_workloads.Workloads.atax Gat_arch.Gpu.k20
      ~rule_based:true synthetic Space.paper
  in
  Alcotest.(check bool) "found something" true (o.Search.best_params <> None);
  Alcotest.(check bool) "far fewer evaluations" true (o.Search.evaluations <= 640)

(* ---- Measurement protocol and ranking ---- *)

let test_measure_protocol_constants () =
  Alcotest.(check int) "10 repetitions" 10 Gat_tuner.Measure.repetitions;
  Alcotest.(check int) "5th trial" 5 Gat_tuner.Measure.selected_trial

let test_measure_evaluate () =
  let rng = Gat_util.Rng.create 9 in
  match
    Gat_tuner.Measure.evaluate Gat_workloads.Workloads.atax Gat_arch.Gpu.k20
      ~n:64 ~rng (Params.make ())
  with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "positive time" true (v.Gat_tuner.Variant.time_ms > 0.0);
      Alcotest.(check bool) "occ in (0,1]" true
        (v.Gat_tuner.Variant.occupancy > 0.0 && v.Gat_tuner.Variant.occupancy <= 1.0);
      Alcotest.(check bool) "regs positive" true (v.Gat_tuner.Variant.registers > 0)

let test_measure_invalid_params () =
  let rng = Gat_util.Rng.create 9 in
  match
    Gat_tuner.Measure.evaluate Gat_workloads.Workloads.atax Gat_arch.Gpu.k20
      ~n:64 ~rng
      (Params.make ~threads_per_block:2048 ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected invalid"

let tiny_space =
  {
    Space.tc = [ 64; 256 ];
    bc = [ 96 ];
    uif = [ 1 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

let test_sweep_and_ranking () =
  Gat_tuner.Tuner.clear_cache ();
  let variants =
    Gat_tuner.Tuner.sweep ~space:tiny_space Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  Alcotest.(check int) "two variants" 2 (List.length variants);
  let ranking = Gat_tuner.Ranking.split variants in
  Alcotest.(check int) "rank1 size" 1 (List.length ranking.Gat_tuner.Ranking.rank1);
  Alcotest.(check int) "rank2 size" 1 (List.length ranking.Gat_tuner.Ranking.rank2);
  let best = Gat_tuner.Ranking.best ranking in
  List.iter
    (fun (v : Gat_tuner.Variant.t) ->
      Alcotest.(check bool) "best is fastest" true
        (best.Gat_tuner.Variant.time_ms <= v.Gat_tuner.Variant.time_ms))
    variants

let test_sweep_cached () =
  Gat_tuner.Tuner.clear_cache ();
  let a =
    Gat_tuner.Tuner.sweep ~space:tiny_space Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  let b =
    Gat_tuner.Tuner.sweep ~space:tiny_space Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  Alcotest.(check bool) "physically cached" true (a == b)

let test_sweep_deterministic_across_cache () =
  Gat_tuner.Tuner.clear_cache ();
  let a =
    Gat_tuner.Tuner.sweep ~space:tiny_space Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  Gat_tuner.Tuner.clear_cache ();
  let b =
    Gat_tuner.Tuner.sweep ~space:tiny_space Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  List.iter2
    (fun (x : Gat_tuner.Variant.t) (y : Gat_tuner.Variant.t) ->
      Alcotest.(check (float 0.0)) "same measurement" x.Gat_tuner.Variant.time_ms
        y.Gat_tuner.Variant.time_ms)
    a b

(* A different kernel under a name already swept is a different sweep:
   the in-process cache is keyed by content, as the disk tier is. *)
let test_sweep_cache_keyed_by_content () =
  let sweep k =
    List.map
      (fun (v : Gat_tuner.Variant.t) -> v.Gat_tuner.Variant.time_ms)
      (Gat_tuner.Tuner.sweep ~space:tiny_space k Gat_arch.Gpu.k20 ~n:64 ~seed:1)
  in
  let renamed = { Gat_workloads.Workloads.bicg with Gat_ir.Kernel.name = "atax" } in
  Gat_tuner.Tuner.clear_cache ();
  let atax = sweep Gat_workloads.Workloads.atax in
  let after_atax = sweep renamed in
  Gat_tuner.Tuner.clear_cache ();
  let alone = sweep renamed in
  Alcotest.(check bool) "kernels differ" false (atax = alone);
  Alcotest.(check (list (float 0.0))) "own sweep" alone after_atax

let test_ranking_split_sorted () =
  Gat_tuner.Tuner.clear_cache ();
  let variants =
    Gat_tuner.Tuner.sweep
      ~space:{ tiny_space with Space.tc = [ 32; 64; 128; 256; 512 ] }
      Gat_workloads.Workloads.atax Gat_arch.Gpu.k20 ~n:128 ~seed:1
  in
  let r = Gat_tuner.Ranking.split variants in
  let max1 =
    List.fold_left
      (fun acc (v : Gat_tuner.Variant.t) -> Float.max acc v.Gat_tuner.Variant.time_ms)
      0.0 r.Gat_tuner.Ranking.rank1
  in
  let min2 =
    List.fold_left
      (fun acc (v : Gat_tuner.Variant.t) -> Float.min acc v.Gat_tuner.Variant.time_ms)
      infinity r.Gat_tuner.Ranking.rank2
  in
  Alcotest.(check bool) "rank1 all faster than rank2" true (max1 <= min2)

let test_autotune_strategies_agree_on_tiny_space () =
  Gat_tuner.Tuner.clear_cache ();
  let o =
    Gat_tuner.Tuner.autotune ~space:tiny_space
      ~strategy:Gat_tuner.Tuner.Exhaustive Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  Alcotest.(check int) "two evaluations" 2 o.Search.evaluations;
  Alcotest.(check bool) "found" true (o.Search.best_params <> None)

let test_strategy_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-empty name" true
        (String.length (Gat_tuner.Tuner.strategy_name s) > 0))
    [
      Gat_tuner.Tuner.Exhaustive;
      Gat_tuner.Tuner.Random 1;
      Gat_tuner.Tuner.Annealing 1;
      Gat_tuner.Tuner.Genetic (1, 2);
      Gat_tuner.Tuner.Nelder_mead 1;
      Gat_tuner.Tuner.Static;
      Gat_tuner.Tuner.Static_rules;
    ]

(* ---- Parallel sweep engine and compile sharing ---- *)

let test_sweep_parallel_deterministic () =
  (* The acceptance bar for the parallel engine: sweeps under 4 worker
     domains are byte-identical (params, times, mixes) to sequential
     ones. *)
  let kernel = Gat_workloads.Workloads.matvec2d and gpu = Gat_arch.Gpu.k20 in
  Gat_tuner.Tuner.clear_cache ();
  let seq = Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:1 in
  Gat_tuner.Tuner.clear_cache ();
  let par = Gat_tuner.Tuner.sweep ~space:small_space ~jobs:4 kernel gpu ~n:64 ~seed:1 in
  Alcotest.(check int) "same variant count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Gat_tuner.Variant.t) (b : Gat_tuner.Variant.t) ->
      Alcotest.(check bool) "byte-identical variant" true (a = b))
    seq par

let test_sweep_multi_parallel_deterministic () =
  let kernel = Gat_workloads.Workloads.atax and gpu = Gat_arch.Gpu.m2050 in
  let ns = [ 32; 64; 128 ] in
  Gat_tuner.Tuner.clear_cache ();
  let seq = Gat_tuner.Tuner.sweep_multi ~space:small_space ~jobs:1 kernel gpu ~ns ~seed:7 in
  Gat_tuner.Tuner.clear_cache ();
  let par = Gat_tuner.Tuner.sweep_multi ~space:small_space ~jobs:4 kernel gpu ~ns ~seed:7 in
  Alcotest.(check bool) "byte-identical multi-size sweep" true (seq = par)

let compile_count () = Gat_util.Metrics.(value (counter "compile.count"))

let test_compile_shared_across_sizes () =
  (* Each (kernel, gpu, params) triple must be compiled exactly once
     across a multi-size sweep — the seed recompiled per size. *)
  let kernel = Gat_workloads.Workloads.matvec2d and gpu = Gat_arch.Gpu.k20 in
  Gat_tuner.Tuner.clear_cache ();
  let c0 = compile_count () in
  let results =
    Gat_tuner.Tuner.sweep_multi ~space:small_space kernel gpu
      ~ns:[ 32; 64; 128 ] ~seed:1
  in
  Alcotest.(check int) "three sizes" 3 (List.length results);
  let points = Space.cardinality small_space in
  Alcotest.(check int) "one compile per point" points (compile_count () - c0);
  (* A later single-size sweep at a new size is a new call: it compiles
     each point once more, and the codegen cache serves every backend. *)
  let misses0 = (Gat_compiler.Codegen_cache.stats ()).Gat_compiler.Codegen_cache.misses in
  ignore (Gat_tuner.Tuner.sweep ~space:small_space kernel gpu ~n:256 ~seed:1);
  Alcotest.(check int) "one more compile per point" (2 * points)
    (compile_count () - c0);
  Alcotest.(check int) "no backend recompiled" misses0
    (Gat_compiler.Codegen_cache.stats ()).Gat_compiler.Codegen_cache.misses

let test_sweep_multi_matches_single_sweeps () =
  let kernel = Gat_workloads.Workloads.matvec2d and gpu = Gat_arch.Gpu.k20 in
  Gat_tuner.Tuner.clear_cache ();
  let multi =
    Gat_tuner.Tuner.sweep_multi ~space:tiny_space kernel gpu ~ns:[ 64; 128 ]
      ~seed:1
  in
  Gat_tuner.Tuner.clear_cache ();
  let single64 = Gat_tuner.Tuner.sweep ~space:tiny_space kernel gpu ~n:64 ~seed:1 in
  let single128 = Gat_tuner.Tuner.sweep ~space:tiny_space kernel gpu ~n:128 ~seed:1 in
  Alcotest.(check bool) "n=64 identical" true (List.assoc 64 multi = single64);
  Alcotest.(check bool) "n=128 identical" true (List.assoc 128 multi = single128)

(* The in-process memos compute each key once whatever the worker
   count, so the cache and verifier counters of a sweep do not move
   with [jobs].  Stores off: every class and verdict is computed. *)
let test_counters_independent_of_jobs () =
  let kernel = Gat_workloads.Workloads.atax and gpu = Gat_arch.Gpu.k20 in
  let names =
    [
      "cache.codegen.hits";
      "cache.codegen.misses";
      "cache.verdict.hits";
      "cache.verdict.misses";
      "verify.analyzed";
      "verify.checked";
    ]
  in
  let value name = Gat_util.Metrics.(value (counter name)) in
  let deltas jobs =
    Gat_tuner.Tuner.clear_cache ();
    let before = List.map value names in
    ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs kernel gpu ~n:32 ~seed:1);
    List.map2 (fun name v0 -> (name, value name - v0)) names before
  in
  let artifacts = Gat_compiler.Artifacts.cache in
  Gat_util.Store.set_enabled artifacts false;
  let one, four =
    Fun.protect
      ~finally:(fun () -> Gat_util.Store.set_enabled artifacts true)
      (fun () ->
        let one = deltas 1 in
        (one, deltas 4))
  in
  Alcotest.(check bool) "classes computed" true (List.assoc "cache.codegen.misses" one > 0);
  Alcotest.(check (list (pair string int))) "jobs 1 = jobs 4" one four

(* The artifact store's counters are job-count independent too: each
   run starts from a fresh cache root, so every code class is one miss
   and one store — two points of one class must not both analyze and
   store it. *)
let test_artifact_counters_independent_of_jobs () =
  let kernel = Gat_workloads.Workloads.bicg and gpu = Gat_arch.Gpu.k20 in
  let artifact_counters () =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"artifact." name)
      (Gat_util.Metrics.counters_snapshot ())
  in
  let root = Gat_util.Cache_dir.root () in
  let runs = ref 0 in
  let deltas jobs =
    Gat_tuner.Tuner.clear_cache ();
    incr runs;
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat root (Printf.sprintf "artifact-run-%d" !runs));
    let before = artifact_counters () in
    Fun.protect
      ~finally:(fun () -> Unix.putenv "GAT_CACHE_DIR" root)
      (fun () ->
        ignore (Gat_tuner.Tuner.sweep ~jobs kernel gpu ~n:64 ~seed:42));
    List.map
      (fun (name, v) ->
        (name, v - Option.value ~default:0 (List.assoc_opt name before)))
      (artifact_counters ())
  in
  let one = deltas 1 in
  Alcotest.(check bool) "artifacts stored" true (List.assoc "artifact.stores" one > 0);
  (* A duplicate miss needs an unlucky interleaving: try a few. *)
  for _ = 1 to 3 do
    Alcotest.(check (list (pair string int))) "jobs 1 = jobs 4" one (deltas 4)
  done

(* ---- Measurement protocol: trial-draw regression ---- *)

let test_measure_draws_match_full_protocol () =
  (* Measure now draws only [selected_trial] noise samples; the
     recorded time must be bit-identical to the original protocol that
     drew all [repetitions] and kept the fifth. *)
  let kernel = Gat_workloads.Workloads.atax and gpu = Gat_arch.Gpu.k20 in
  let compiled = Gat_compiler.Driver.compile_exn kernel gpu (Params.make ()) in
  let base = (Gat_sim.Engine.run compiled ~n:64).Gat_sim.Engine.time_ms in
  List.iter
    (fun seed ->
      let reference =
        let rng = Gat_util.Rng.create seed in
        let trials =
          List.init Gat_tuner.Measure.repetitions (fun _ ->
              base *. Gat_util.Rng.lognormal rng ~mu:0.0 ~sigma:0.02)
        in
        List.nth trials (Gat_tuner.Measure.selected_trial - 1)
      in
      let actual =
        Gat_tuner.Measure.time_of compiled ~n:64 ~rng:(Gat_util.Rng.create seed)
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "exact 5th-trial time (seed %d)" seed)
        reference actual)
    [ 1; 9; 42; 1234 ]

let test_evaluate_compiled_matches_evaluate () =
  let kernel = Gat_workloads.Workloads.atax and gpu = Gat_arch.Gpu.k20 in
  let params = Params.make ~threads_per_block:256 ~fast_math:true () in
  match
    Gat_tuner.Measure.evaluate kernel gpu ~n:64 ~rng:(Gat_util.Rng.create 9)
      params
  with
  | Error e -> Alcotest.fail e
  | Ok v ->
      let compiled = Gat_compiler.Driver.compile_exn kernel gpu params in
      let v' =
        Gat_tuner.Measure.evaluate_compiled compiled ~n:64
          ~rng:(Gat_util.Rng.create 9)
      in
      Alcotest.(check bool) "pre-compiled path identical" true (v = v')

(* [Measure.est_mix] replays the block table instead of walking the
   program; it must equal [Imix.estimate_dynamic] bit for bit on every
   kernel x device at every input size. *)
let test_est_mix_matches_imix () =
  let sample =
    List.filteri (fun i _ -> i mod 256 = 0) (Gat_tuner.Space.points Gat_tuner.Space.paper)
    @ [
        Params.make ~threads_per_block:256 ~block_count:48 ~unroll:3
          ~staging:2 ~fast_math:true ();
      ]
  in
  let bits (m : Gat_core.Imix.t) =
    Int64.bits_of_float m.Gat_core.Imix.reg_operands
    :: Array.to_list (Array.map Int64.bits_of_float m.Gat_core.Imix.per_category)
  in
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          List.iter
            (fun params ->
              match Gat_compiler.Driver.compile kernel gpu params with
              | Error _ -> ()
              | Ok c ->
                  List.iter
                    (fun n ->
                      Alcotest.(check (list int64))
                        (Printf.sprintf "%s/%s %s n=%d" kernel.Gat_ir.Kernel.name
                           gpu.Gat_arch.Gpu.name (Params.to_string params) n)
                        (bits
                           (Gat_core.Imix.estimate_dynamic
                              c.Gat_compiler.Driver.program ~n))
                        (bits (Gat_tuner.Measure.est_mix c ~n)))
                    (Gat_workloads.Workloads.input_sizes kernel))
            sample)
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all

(* ---- Journal ---- *)

let make_journal () =
  Gat_tuner.Journal.create ~kernel:"atax" ~gpu:"K20" ~n:64 ~seed:3
    ~strategy:"exhaustive"

let test_journal_records () =
  let j = make_journal () in
  let obj = Gat_tuner.Journal.recording j synthetic in
  ignore (obj (Params.make ~threads_per_block:64 ()));
  ignore (obj (Params.make ~threads_per_block:128 ()));
  Alcotest.(check int) "two entries" 2 (Gat_tuner.Journal.length j);
  let entries = Gat_tuner.Journal.entries j in
  Alcotest.(check int) "ordered" 1 (List.hd entries).Gat_tuner.Journal.index

let test_journal_roundtrip () =
  let j = make_journal () in
  let obj = Gat_tuner.Journal.recording j synthetic in
  List.iter
    (fun tc -> ignore (obj (Params.make ~threads_per_block:tc ~fast_math:(tc > 128) ())))
    [ 32; 64; 128; 256; 512 ];
  (* Record one invalid decision too. *)
  let j_obj = Gat_tuner.Journal.recording j (fun _ -> None) in
  ignore (j_obj (Params.make ~threads_per_block:96 ()));
  match Gat_tuner.Journal.of_string (Gat_tuner.Journal.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' ->
      Alcotest.(check string) "kernel" "atax" j'.Gat_tuner.Journal.kernel;
      Alcotest.(check int) "n" 64 j'.Gat_tuner.Journal.n;
      Alcotest.(check int) "entries" 6 (Gat_tuner.Journal.length j');
      List.iter2
        (fun (a : Gat_tuner.Journal.entry) (b : Gat_tuner.Journal.entry) ->
          Alcotest.(check int) "params equal" 0
            (Params.compare a.Gat_tuner.Journal.params b.Gat_tuner.Journal.params);
          Alcotest.(check bool) "time equal" true
            (a.Gat_tuner.Journal.time_ms = b.Gat_tuner.Journal.time_ms))
        (Gat_tuner.Journal.entries j)
        (Gat_tuner.Journal.entries j')

let test_journal_replay_exact () =
  let j = make_journal () in
  let obj = Gat_tuner.Journal.recording j synthetic in
  List.iter
    (fun tc -> ignore (obj (Params.make ~threads_per_block:tc ())))
    [ 32; 64; 128 ];
  let report = Gat_tuner.Journal.replay j synthetic in
  Alcotest.(check int) "total" 3 report.Gat_tuner.Journal.total;
  Alcotest.(check int) "validity" 3 report.Gat_tuner.Journal.validity_matches;
  Alcotest.(check (float 1e-12)) "deterministic objective deviates 0" 0.0
    report.Gat_tuner.Journal.max_relative_deviation

let test_journal_replay_detects_change () =
  let j = make_journal () in
  let obj = Gat_tuner.Journal.recording j synthetic in
  ignore (obj (Params.make ~threads_per_block:64 ()));
  let skewed p = Option.map (fun t -> (t +. 1.0) *. 2.0) (synthetic p) in
  let report = Gat_tuner.Journal.replay j skewed in
  Alcotest.(check bool) "deviation detected" true
    (report.Gat_tuner.Journal.max_relative_deviation > 0.5)

let test_journal_parse_errors () =
  (match Gat_tuner.Journal.of_string "garbage,row\n" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ());
  match Gat_tuner.Journal.of_string "#kernel=atax\n" with
  | Ok _ -> Alcotest.fail "expected error (missing metadata)"
  | Error _ -> ()

let test_autotune_with_journal () =
  Gat_tuner.Tuner.clear_cache ();
  let j = make_journal () in
  let o =
    Gat_tuner.Tuner.autotune ~space:tiny_space ~journal:j
      ~strategy:Gat_tuner.Tuner.Exhaustive Gat_workloads.Workloads.matvec2d
      Gat_arch.Gpu.k20 ~n:64 ~seed:1
  in
  Alcotest.(check int) "journal captured all evaluations"
    o.Search.evaluations (Gat_tuner.Journal.length j)

(* ---- flattened engine vs legacy path, at the ranking level ----

   The Fig. 4 population is built from sweep rankings, so the flattened
   simulation path must reproduce the legacy ranking *bit-identically*:
   same variants, same order, same recorded times.  Evaluate a small
   space once through the production sweep (block-table engine) and
   once through a from-scratch replica of the measurement protocol
   driven by [Engine.run_reference], then compare the per-size pooled
   ranking exactly as Fig. 4 pools it. *)

let legacy_evaluate kernel gpu ~n ~seed params =
  match Gat_compiler.Driver.compile kernel gpu params with
  | Error _ -> None
  | Ok c ->
      let rng =
        Gat_util.Rng.create (Gat_tuner.Tuner.point_seed kernel gpu ~seed params)
      in
      let sim = Gat_sim.Engine.run_reference c ~n in
      let t = ref sim.Gat_sim.Engine.time_ms in
      for _ = 1 to Gat_tuner.Measure.selected_trial do
        t :=
          sim.Gat_sim.Engine.time_ms
          *. Gat_util.Rng.lognormal rng ~mu:0.0 ~sigma:0.02
      done;
      Some
        {
          Gat_tuner.Variant.params;
          time_ms = !t;
          occupancy = sim.Gat_sim.Engine.occupancy;
          registers =
            c.Gat_compiler.Driver.log.Gat_compiler.Ptxas_info.registers;
          dynamic_mix = sim.Gat_sim.Engine.dynamic_mix;
          est_mix =
            Gat_core.Imix.estimate_dynamic c.Gat_compiler.Driver.program ~n;
        }

let check_ranking_half label (a : Gat_tuner.Variant.t list)
    (b : Gat_tuner.Variant.t list) =
  Alcotest.(check int) (label ^ " size") (List.length a) (List.length b);
  List.iter2
    (fun (x : Gat_tuner.Variant.t) (y : Gat_tuner.Variant.t) ->
      Alcotest.(check int) (label ^ " params") 0
        (Params.compare x.Gat_tuner.Variant.params y.Gat_tuner.Variant.params);
      Alcotest.(check int64) (label ^ " time bits")
        (Int64.bits_of_float x.Gat_tuner.Variant.time_ms)
        (Int64.bits_of_float y.Gat_tuner.Variant.time_ms))
    a b

let test_fig4_ranking_identical_to_legacy () =
  let kernel = Gat_workloads.Workloads.atax in
  let gpu = Gat_arch.Gpu.m2050 in
  let seed = 42 in
  let ns = [ 64; 128; 256 ] in
  Gat_tuner.Tuner.clear_cache ();
  let swept =
    Gat_tuner.Tuner.sweep_multi ~space:small_space ~jobs:1 kernel gpu ~ns ~seed
  in
  let pool rankings =
    {
      Gat_tuner.Ranking.rank1 =
        List.concat_map (fun r -> r.Gat_tuner.Ranking.rank1) rankings;
      rank2 = List.concat_map (fun r -> r.Gat_tuner.Ranking.rank2) rankings;
    }
  in
  let fast =
    pool (List.map (fun (_, vs) -> Gat_tuner.Ranking.split vs) swept)
  in
  let legacy =
    pool
      (List.map
         (fun n ->
           Gat_tuner.Ranking.split
             (List.filter_map
                (legacy_evaluate kernel gpu ~n ~seed)
                (Space.points small_space)))
         ns)
  in
  check_ranking_half "rank1" legacy.Gat_tuner.Ranking.rank1
    fast.Gat_tuner.Ranking.rank1;
  check_ranking_half "rank2" legacy.Gat_tuner.Ranking.rank2
    fast.Gat_tuner.Ranking.rank2

let () =
  Alcotest.run "gat_tuner"
    [
      ( "space",
        [
          Alcotest.test_case "paper cardinality" `Quick test_space_paper_cardinality;
          Alcotest.test_case "paper axes" `Quick test_space_paper_axes;
          Alcotest.test_case "points count" `Quick test_space_points_count;
          Alcotest.test_case "points unique" `Quick test_space_points_unique;
          Alcotest.test_case "restrict tc" `Quick test_space_restrict_tc;
          Alcotest.test_case "of_spec defaults" `Quick test_space_of_spec_defaults;
          QCheck_alcotest.to_alcotest prop_space_mem_matches_points;
        ] );
      ( "search",
        [
          Alcotest.test_case "counting" `Quick test_counting_objective;
          Alcotest.test_case "memoized" `Quick test_memoized_objective;
          Alcotest.test_case "clamping" `Quick test_params_of_point_clamps;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "exhaustive optimum" `Quick test_exhaustive_finds_optimum;
          Alcotest.test_case "random" `Quick test_random_search;
          Alcotest.test_case "annealing" `Quick test_annealing;
          Alcotest.test_case "genetic" `Quick test_genetic;
          Alcotest.test_case "nelder-mead" `Quick test_nelder_mead;
          Alcotest.test_case "all invalid" `Quick test_exhaustive_all_invalid;
        ] );
      ( "static_search",
        [
          Alcotest.test_case "prune reductions" `Quick test_static_prune_reductions;
          Alcotest.test_case "prune subset" `Quick test_static_prune_subset;
          Alcotest.test_case "fermi T*" `Quick test_static_prune_fermi_t_star;
          Alcotest.test_case "runs" `Quick test_static_search_runs;
        ] );
      ( "measure/ranking",
        [
          Alcotest.test_case "protocol" `Quick test_measure_protocol_constants;
          Alcotest.test_case "evaluate" `Quick test_measure_evaluate;
          Alcotest.test_case "invalid params" `Quick test_measure_invalid_params;
          Alcotest.test_case "sweep + ranking" `Quick test_sweep_and_ranking;
          Alcotest.test_case "sweep cached" `Quick test_sweep_cached;
          Alcotest.test_case "sweep deterministic" `Quick test_sweep_deterministic_across_cache;
          Alcotest.test_case "sweep cache keyed by content" `Quick
            test_sweep_cache_keyed_by_content;
          Alcotest.test_case "ranking sorted" `Quick test_ranking_split_sorted;
          Alcotest.test_case "autotune tiny" `Quick test_autotune_strategies_agree_on_tiny_space;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "sweep_engine",
        [
          Alcotest.test_case "parallel sweep deterministic" `Quick
            test_sweep_parallel_deterministic;
          Alcotest.test_case "parallel multi-size deterministic" `Quick
            test_sweep_multi_parallel_deterministic;
          Alcotest.test_case "compile shared across sizes" `Quick
            test_compile_shared_across_sizes;
          Alcotest.test_case "multi matches single sweeps" `Quick
            test_sweep_multi_matches_single_sweeps;
          Alcotest.test_case "artifact counters independent of jobs" `Quick
            test_artifact_counters_independent_of_jobs;
          Alcotest.test_case "counters independent of jobs" `Quick
            test_counters_independent_of_jobs;
          Alcotest.test_case "trial draws match full protocol" `Quick
            test_measure_draws_match_full_protocol;
          Alcotest.test_case "est_mix = Imix.estimate_dynamic" `Quick
            test_est_mix_matches_imix;
          Alcotest.test_case "evaluate_compiled matches evaluate" `Quick
            test_evaluate_compiled_matches_evaluate;
          Alcotest.test_case "fig4 ranking = legacy path" `Quick
            test_fig4_ranking_identical_to_legacy;
        ] );
      ( "journal",
        [
          Alcotest.test_case "records" `Quick test_journal_records;
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "replay exact" `Quick test_journal_replay_exact;
          Alcotest.test_case "replay detects change" `Quick test_journal_replay_detects_change;
          Alcotest.test_case "parse errors" `Quick test_journal_parse_errors;
          Alcotest.test_case "autotune integration" `Quick test_autotune_with_journal;
        ] );
    ]
