(* Tests for the static kernel safety verifier: barrier intervals,
   barrier-divergence checking, the two-thread shared-memory race
   abstraction, the stable verify report, and the sweep integration
   (unsafe variants classified, persisted, and never ranked). *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

open Gat_analysis
module Params = Gat_compiler.Params
module Space = Gat_tuner.Space
module Tuner = Gat_tuner.Tuner
module Variant = Gat_tuner.Variant

let parse = Gat_isa.Parser.program_exn

let read_fixture name =
  In_channel.with_open_text (Filename.concat "fixtures" name)
    In_channel.input_all

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* A straight-line kernel where each thread stages its own 4-byte slot,
   synchronizes, then reads its neighbour's slot: the textbook pattern
   that is safe exactly because of the barrier. *)
let staged ~with_barrier =
  parse
    (String.concat "\n"
       [
         ".kernel staged";
         ".target sm_35";
         ".regs 2";
         ".smem.static 1024";
         ".smem.dynamic 0";
         "";
         "BB0: ; weight=0x1p+0,0x0p+0,0x0p+0,0x0p+0 active=0x1p+0";
         "  MOV R0, %tid.x";
         "  IMAD R1, R0, 4, 0";
         "  STS [shared:R1], R0";
         (if with_barrier then "  BAR.SYNC 0" else "  MOV R0, R0");
         "  LDS R0, [shared:R1+4]";
         "  EXIT";
         "";
       ])

(* ---- barrier intervals ---- *)

let test_intervals_phases () =
  let cfg = Gat_cfg.Cfg.of_program (staged ~with_barrier:true) in
  let iv = Gat_cfg.Intervals.compute cfg in
  Alcotest.(check int) "one barrier" 1 (Gat_cfg.Intervals.barrier_count iv);
  (* The STS (index 2) runs in phase 0; the LDS (index 4) after the
     barrier in phase 1; they can never share a phase. *)
  Alcotest.(check (list int)) "sts in phase 0" [ 0 ]
    (Gat_cfg.Intervals.instr_phases iv ~block:0 ~instr:2);
  Alcotest.(check (list int)) "lds in phase 1" [ 1 ]
    (Gat_cfg.Intervals.instr_phases iv ~block:0 ~instr:4);
  Alcotest.(check bool) "separated by the barrier" false
    (Gat_cfg.Intervals.may_share_phase iv (0, 2) (0, 4));
  Alcotest.(check bool) "same-phase pair shares" true
    (Gat_cfg.Intervals.may_share_phase iv (0, 0) (0, 2))

let test_intervals_loop_carried () =
  (* A barrier inside a loop: the pre-barrier access of iteration k+1
     shares phase with the post-barrier access of iteration k via the
     back edge, so the two sides overlap in some phase. *)
  let p =
    parse
      (String.concat "\n"
         [
           ".kernel loopbar";
           ".target sm_35";
           ".regs 3";
           ".smem.static 64";
           ".smem.dynamic 0";
           "";
           "BB0: ; weight=0x1p+0,0x0p+0,0x0p+0,0x0p+0 active=0x1p+0";
           "  MOV R0, 0";
           "  BRA BB1";
           "BB1: ; weight=0x1p+2,0x0p+0,0x0p+0,0x0p+0 active=0x1p+0";
           "  STS [shared:R0], R0";
           "  BAR.SYNC 0";
           "  LDS R1, [shared:R0]";
           "  IADD R0, R0, 4";
           "  ISETP.LT P0, R0, 64";
           "  @P0 BRA BB1 else BB2";
           "BB2: ; weight=0x1p+0,0x0p+0,0x0p+0,0x0p+0 active=0x1p+0";
           "  EXIT";
           "";
         ])
  in
  let iv = Gat_cfg.Intervals.compute (Gat_cfg.Cfg.of_program p) in
  (* Back edge feeds phase 1 into BB1's entry alongside phase 0. *)
  Alcotest.(check (list int)) "loop head sees both phases" [ 0; 1 ]
    (Gat_cfg.Intervals.block_entry_phases iv 1);
  Alcotest.(check bool) "STS and LDS still share a phase" true
    (Gat_cfg.Intervals.may_share_phase iv (1, 0) (1, 2))

(* ---- barrier divergence ---- *)

let test_divergent_barrier_flagged () =
  let p = parse (read_fixture "divergent_bar.sass") in
  let findings = Barrier_safety.check (Gat_cfg.Cfg.of_program p) in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "barrier block" "BB1"
        f.Barrier_safety.block_label;
      Alcotest.(check int) "instruction index" 0
        f.Barrier_safety.instr_index;
      Alcotest.(check (list string)) "open divergent branch" [ "BB0" ]
        f.Barrier_safety.branch_labels;
      Alcotest.(check bool) "diagnostic names both" true
        (contains (Barrier_safety.finding_to_string f) "BB1+0"
        && contains (Barrier_safety.finding_to_string f) "BB0")
  | l -> Alcotest.failf "expected exactly one finding, got %d" (List.length l)

let test_uniform_barrier_clean () =
  let p = staged ~with_barrier:true in
  Alcotest.(check int) "no findings" 0
    (List.length (Barrier_safety.check (Gat_cfg.Cfg.of_program p)))

(* ---- shared-memory races ---- *)

let races_of p ~tc = (Verify.run ~threads_per_block:tc p).Verify.races

let test_racy_fixture () =
  let p = parse (read_fixture "racy_smem.sass") in
  match races_of p ~tc:128 with
  | [ f ] ->
      Alcotest.(check bool) "write-write" true
        (f.Races.kind = Races.Write_write);
      (match f.Races.witness with
      | Races.Exact (t1, t2) ->
          Alcotest.(check (pair int int)) "witness threads" (0, 1) (t1, t2)
      | Races.May _ -> Alcotest.fail "expected an exact witness");
      let s = Races.finding_to_string ~threads_per_block:128 f in
      Alcotest.(check bool) "names the instruction pair" true
        (contains s "BB0+2")
  | l -> Alcotest.failf "expected exactly one race, got %d" (List.length l)

let test_barrier_separates_race () =
  (* Same access pattern, with and without the barrier between the
     write and the neighbour read. *)
  Alcotest.(check int) "with barrier: no race" 0
    (List.length (races_of (staged ~with_barrier:true) ~tc:128));
  match races_of (staged ~with_barrier:false) ~tc:128 with
  | [ f ] ->
      Alcotest.(check bool) "read-write" true (f.Races.kind = Races.Read_write);
      (match f.Races.witness with
      | Races.Exact (t1, t2) ->
          (* Thread t+1's write at 4(t+1) hits thread t's read at 4t+4. *)
          Alcotest.(check (pair int int)) "adjacent threads" (1, 0) (t1, t2)
      | Races.May _ -> Alcotest.fail "expected an exact witness")
  | l -> Alcotest.failf "expected exactly one race, got %d" (List.length l)

let test_witness_respects_tc () =
  (* At TC=1 the two-thread abstraction has no second thread, so the
     same unsynchronized program is race-free. *)
  Alcotest.(check int) "TC=1 cannot race" 0
    (List.length (races_of (staged ~with_barrier:false) ~tc:1))

let test_disjoint_strides_clean () =
  (* 8-byte-strided 4-byte accesses never overlap between distinct
     threads: the exhaustive witness search must prove absence. *)
  let p =
    parse
      (String.concat "\n"
         [
           ".kernel strided8";
           ".target sm_35";
           ".regs 2";
           ".smem.static 2048";
           ".smem.dynamic 0";
           "";
           "BB0: ; weight=0x1p+0,0x0p+0,0x0p+0,0x0p+0 active=0x1p+0";
           "  MOV R0, %tid.x";
           "  IMAD R1, R0, 8, 0";
           "  STS [shared:R1], R0";
           "  LDS R0, [shared:R1+4]";
           "  EXIT";
           "";
         ])
  in
  Alcotest.(check int) "no overlap at stride 8" 0
    (List.length (races_of p ~tc:256))

(* ---- the verify report ---- *)

let test_report_golden_racy () =
  let report =
    Verify.run ~threads_per_block:128 (parse (read_fixture "racy_smem.sass"))
  in
  Alcotest.(check bool) "unsafe" false (Verify.safe report);
  Alcotest.(check string) "stable report"
    (String.concat "\n"
       [
         "verify: racy_smem (TC=128)";
         "==========================";
         "";
         "barriers: 0 (1 interval)";
         "shared accesses: 2";
         "";
         "divergent barriers:";
         "  none";
         "";
         "shared-memory races:";
         "  write-write: STS shared[0] at BB0+2 <-> STS shared[0] at \
          BB0+2: threads 0 and 1 at TC=128";
         "";
         "verdict: UNSAFE";
         "";
       ])
    (Verify.render report);
  Alcotest.(check string) "summary line"
    "UNSAFE: 0 divergent barriers, 1 shared-memory race"
    (Verify.summary report)

let compile kernel gpu params = Gat_compiler.Driver.compile_exn kernel gpu params

let test_workloads_safe_everywhere () =
  (* Every bundled workload must verify SAFE on every device, with and
     without staging (the staging prologue emits STS + BAR). *)
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          List.iter
            (fun sc ->
              let params =
                Params.make ~threads_per_block:128 ~block_count:96 ~unroll:1
                  ~l1_pref_kb:16 ~staging:sc ~fast_math:false ()
              in
              let c = compile kernel gpu params in
              let r =
                Verify.run ~threads_per_block:128 c.Gat_compiler.Driver.ptx
              in
              if not (Verify.safe r) then
                Alcotest.failf "%s on %s (sc=%d) flagged: %s"
                  kernel.Gat_ir.Kernel.name gpu.Gat_arch.Gpu.name sc
                  (Verify.summary r))
            [ 1; 4 ])
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all

(* Verdict invariance (QCheck): for the race-free bundled kernels the
   verdict is SAFE at every point of the paper's TC x BC x UIF x PL x
   SC x CFLAGS space that compiles. *)
let test_verdict_invariant =
  let space = Space.paper in
  let pick l i = List.nth l (i mod List.length l) in
  QCheck.Test.make ~name:"bundled kernels verify SAFE across the space"
    ~count:60
    QCheck.(
      tup6 small_nat small_nat small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d, e, f) ->
      let params =
        Params.make
          ~threads_per_block:(pick space.Space.tc a)
          ~block_count:(pick space.Space.bc b)
          ~unroll:(pick space.Space.uif c)
          ~l1_pref_kb:(pick space.Space.pl d)
          ~staging:(pick space.Space.sc e)
          ~fast_math:(pick space.Space.cflags f)
          ()
      in
      let kernel = pick Gat_workloads.Workloads.all (a + b + c) in
      match Gat_compiler.Driver.compile kernel Gat_arch.Gpu.k20 params with
      | Error _ -> true
      | Ok c ->
          Verify.safe
            (Verify.run
               ~threads_per_block:params.Params.threads_per_block
               c.Gat_compiler.Driver.ptx))

(* ---- sweep integration ---- *)

(* A kernel with a barrier inside the grid-stride parallel loop: the
   loop latch is thread-dependent, so every variant has a divergent
   barrier and the whole space must be classified unsafe. *)
let sync_kernel =
  let open Gat_ir in
  let open Gat_ir.Expr in
  Kernel.make ~name:"syncloop"
    ~description:"barrier under the thread-dependent grid-stride latch"
    ~arrays:[ Kernel.array_decl "x" 1; Kernel.array_decl "y" 1 ]
    [
      Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size
        [
          Stmt.Store ("y", [ var "i" ], read "x" [ var "i" ]);
          Stmt.Sync;
        ];
    ]

let small_space =
  {
    Space.tc = [ 64; 128 ];
    bc = [ 32 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

let gpu = Gat_arch.Gpu.k20

let reset () =
  Tuner.clear_cache ();
  Gat_util.Store.set_enabled Gat_tuner.Disk_cache.cache false

let test_sweep_classifies_unsafe () =
  reset ();
  let r = Tuner.sweep_report ~space:small_space ~jobs:2 sync_kernel gpu ~n:64 ~seed:5 in
  Alcotest.(check int) "no ranked variants" 0 (List.length r.Tuner.variants);
  Alcotest.(check int) "no failures" 0 (List.length r.Tuner.failures);
  Alcotest.(check int) "every point unsafe"
    (Space.cardinality small_space)
    (List.length r.Tuner.unsafe);
  List.iter
    (fun (u : Variant.unsafe) ->
      Alcotest.(check bool) "reason names the divergent barrier" true
        (contains u.Variant.reason "divergent barrier");
      Alcotest.(check bool) "summary renders" true
        (contains (Variant.unsafe_summary u) "UNSAFE"))
    r.Tuner.unsafe

let test_autotune_never_ranks_unsafe () =
  reset ();
  let outcome =
    Tuner.autotune ~space:small_space ~strategy:Tuner.Exhaustive sync_kernel
      gpu ~n:64 ~seed:5
  in
  Alcotest.(check bool) "no best point" true
    (outcome.Gat_tuner.Search.best_params = None)

let test_safe_kernel_sweep_unaffected () =
  reset ();
  let r =
    Tuner.sweep_report ~space:small_space ~jobs:2
      Gat_workloads.Workloads.atax gpu ~n:64 ~seed:5
  in
  Alcotest.(check int) "no unsafe points" 0 (List.length r.Tuner.unsafe);
  Alcotest.(check int) "all points ranked"
    (Space.cardinality small_space)
    (List.length r.Tuner.variants)

let test_verdict_cache_shares_bc () =
  (* BC is not part of the code shape, so verifying two variants that
     differ only in BC runs the analysis once. *)
  reset ();
  let counter name = Gat_util.Metrics.(value (counter name)) in
  let hits0 = counter "cache.verdict.hits"
  and misses0 = counter "cache.verdict.misses" in
  let p bc =
    Params.make ~threads_per_block:128 ~block_count:bc ~unroll:2 ~l1_pref_kb:16
      ~staging:2 ~fast_math:false ()
  in
  let c1 = compile Gat_workloads.Workloads.atax gpu (p 32) in
  let c2 = compile Gat_workloads.Workloads.atax gpu (p 64) in
  let v1 = Tuner.verdict c1 in
  let v2 = Tuner.verdict c2 in
  Alcotest.(check int) "one analysis" 1 (counter "cache.verdict.misses" - misses0);
  Alcotest.(check int) "one shared verdict" 1 (counter "cache.verdict.hits" - hits0);
  Alcotest.(check bool) "one code class" true (v1 == v2)

(* ---- golden verdicts ----

   One MD5 over the rendered report of every (code class, TC) pair the
   paper's space produces for every bundled kernel on every device,
   with staging on as well as off, plus the barrier-in-loop kernel and
   the race and divergence fixtures at several TCs.  The digest was
   captured from the verifier that ran the whole analysis once per
   (class, TC); it pins every verdict, finding and witness that
   binding TC over a class's facts must reproduce, whether the facts
   were just computed or served by the artifact store. *)

let golden_verdicts_md5 = "a2541d6151cc070e9459b15a6ddf6982"

(* Each distinct weight-free digest once, with its program and every
   TC it was compiled at, sorted by digest. *)
let golden_classes () =
  let space =
    { Space.paper with Space.bc = [ List.hd Space.paper.Space.bc ]; sc = [ 1; 2; 4 ] }
  in
  let classes = Hashtbl.create 64 in
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          List.iter
            (fun (params : Params.t) ->
              match Gat_compiler.Driver.compile kernel gpu params with
              | Error _ -> ()
              | Ok c ->
                  let d = c.Gat_compiler.Driver.digest in
                  let p, tcs =
                    Option.value (Hashtbl.find_opt classes d)
                      ~default:(c.Gat_compiler.Driver.ptx, [])
                  in
                  let tc = params.Params.threads_per_block in
                  if not (List.mem tc tcs) then
                    Hashtbl.replace classes d (p, tc :: tcs))
            (Space.points space))
        Gat_arch.Gpu.all)
    (sync_kernel :: Gat_workloads.Workloads.all);
  let fixtures =
    List.map
      (fun p -> ("fixture " ^ p.Gat_isa.Program.name, (p, [ 1; 2; 32; 33; 128; 1024 ])))
      [
        parse (read_fixture "racy_smem.sass");
        parse (read_fixture "divergent_bar.sass");
        staged ~with_barrier:true;
        { (staged ~with_barrier:false) with Gat_isa.Program.name = "staged_nobar" };
      ]
  in
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) classes [])
  @ fixtures

let golden_md5 classes report_of =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (d, (p, tcs)) ->
      List.iter
        (fun tc ->
          Buffer.add_string buf (d ^ "\n");
          Buffer.add_string buf (Verify.render (report_of d p tc)))
        (List.sort compare tcs))
    classes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_verdicts () =
  let classes = golden_classes () in
  Alcotest.(check string) "report (analyze p)" golden_verdicts_md5
    (golden_md5 classes (fun _ p tc ->
         Verify.report ~threads_per_block:tc (Verify.analyze p)));
  (* Every class analyzed and stored once, then every report bound
     over the facts the store serves back. *)
  let module Artifacts = Gat_compiler.Artifacts in
  List.iter
    (fun (d, (p, _)) ->
      Artifacts.store_verdict ~key:(Artifacts.verdict_key d) (Verify.analyze p))
    classes;
  Alcotest.(check string) "facts served by the store" golden_verdicts_md5
    (golden_md5 classes (fun d _ tc ->
         match Artifacts.find_verdict ~key:(Artifacts.verdict_key d) with
         | Some f -> Verify.report ~threads_per_block:tc f
         | None -> Alcotest.failf "class %s not served by the store" d))

let test_verify_exit_code () =
  Alcotest.(check int) "verify maps to exit 7" 7
    (Gat_util.Error.exit_code Gat_util.Error.Verify);
  Alcotest.(check string) "stage name" "verify"
    (Gat_util.Error.stage_name Gat_util.Error.Verify)

let () =
  Alcotest.run "gat_verify"
    [
      ( "intervals",
        [
          Alcotest.test_case "phases split at BAR" `Quick test_intervals_phases;
          Alcotest.test_case "loop-carried phases" `Quick
            test_intervals_loop_carried;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "divergent barrier flagged" `Quick
            test_divergent_barrier_flagged;
          Alcotest.test_case "uniform barrier clean" `Quick
            test_uniform_barrier_clean;
        ] );
      ( "races",
        [
          Alcotest.test_case "racy fixture" `Quick test_racy_fixture;
          Alcotest.test_case "barrier separates" `Quick
            test_barrier_separates_race;
          Alcotest.test_case "TC=1 cannot race" `Quick test_witness_respects_tc;
          Alcotest.test_case "disjoint strides clean" `Quick
            test_disjoint_strides_clean;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden racy report" `Quick test_report_golden_racy;
          Alcotest.test_case "workloads safe everywhere" `Quick
            test_workloads_safe_everywhere;
          QCheck_alcotest.to_alcotest test_verdict_invariant;
          Alcotest.test_case "golden verdicts" `Quick test_golden_verdicts;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "unsafe classified" `Quick
            test_sweep_classifies_unsafe;
          Alcotest.test_case "never ranked" `Quick
            test_autotune_never_ranks_unsafe;
          Alcotest.test_case "safe sweep unaffected" `Quick
            test_safe_kernel_sweep_unaffected;
          Alcotest.test_case "verdict shared across BC" `Quick
            test_verdict_cache_shares_bc;
          Alcotest.test_case "exit code 7" `Quick test_verify_exit_code;
        ] );
    ]
