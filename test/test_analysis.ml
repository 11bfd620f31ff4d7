(* Tests for gat_analysis: the affine address domain, the coalescing
   and bank-conflict models, the generic dataflow solver they ride on,
   and the lint report (golden output for the paper's kernels). *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

open Gat_isa
open Gat_analysis

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let compile kernel gpu =
  Gat_compiler.Driver.compile_exn kernel gpu Gat_compiler.Params.default

let lint kernel gpu =
  let c = compile kernel gpu in
  let log = c.Gat_compiler.Driver.log in
  Lint.render ~gpu ~threads_per_block:128
    ~regs_per_thread:log.Gat_compiler.Ptxas_info.registers
    ~spill_loads:log.Gat_compiler.Ptxas_info.spill_loads
    ~spill_stores:log.Gat_compiler.Ptxas_info.spill_stores
    ~stack_frame:log.Gat_compiler.Ptxas_info.stack_frame
    c.Gat_compiler.Driver.program

(* ---- Affine domain ---- *)

let tid_value = Affine.eval_operand Register.Map.empty (Operand.Special Operand.Tid_x)

let test_affine_const_algebra () =
  let v = Affine.add (Affine.const 4) (Affine.const 8) in
  Alcotest.(check bool) "const" true (Affine.is_const v);
  Alcotest.(check (option int)) "12" (Some 12) v.Affine.base;
  let m = Affine.mul (Affine.const 3) (Affine.const 5) in
  Alcotest.(check (option int)) "15" (Some 15) m.Affine.base

let test_affine_tid_stride () =
  Alcotest.(check bool) "tid known" true
    (tid_value.Affine.tid = Affine.Known { k = 1; e = 0 });
  let scaled = Affine.mul tid_value (Affine.const 4) in
  Alcotest.(check bool) "stride 4" true
    (scaled.Affine.tid = Affine.Known { k = 4; e = 0 })

let test_affine_uniform_scaling () =
  (* Multiplying a per-lane stride by an unknown uniform of magnitude n
     shifts the stride's exponent: tid*n has coefficient 1*n^1. *)
  let n = Affine.uniform ~mag:1 in
  let v = Affine.mul tid_value n in
  Alcotest.(check bool) "tid*n" true
    (v.Affine.tid = Affine.Known { k = 1; e = 1 })

let test_affine_recip_cancels () =
  (* (tid / n) * n recovers the unit stride: the algebra of the
     reciprocal-based integer division cancels modulo flooring. *)
  let n = Affine.uniform ~mag:1 in
  let i = Affine.mul tid_value (Affine.recip n) in
  Alcotest.(check bool) "tid/n" true
    (i.Affine.tid = Affine.Known { k = 1; e = -1 });
  let back = Affine.mul i n in
  Alcotest.(check bool) "(tid/n)*n" true
    (back.Affine.tid = Affine.Known { k = 1; e = 0 })

let test_affine_join_widens_loop_delta () =
  (* A loop counter seen at 0 and 4 widens into iteration stride 4. *)
  let j = Affine.join_value (Affine.const 0) (Affine.const 4) in
  Alcotest.(check (option int)) "base lost" None j.Affine.base;
  Alcotest.(check bool) "iter stride 4" true
    (j.Affine.iter = Affine.Known { k = 4; e = 0 })

let test_affine_coeff_strings () =
  Alcotest.(check string) "zero" "0" (Affine.coeff_to_string Affine.zero_coeff);
  Alcotest.(check string) "bytes" "4"
    (Affine.coeff_to_string (Affine.Known { k = 4; e = 0 }));
  Alcotest.(check string) "linear" "4n"
    (Affine.coeff_to_string (Affine.Known { k = 4; e = 1 }));
  Alcotest.(check string) "unknown" "?" (Affine.coeff_to_string Affine.Unknown)

(* ---- Dataflow solver ---- *)

let block ?(term = Basic_block.Exit) label body = Basic_block.make label body term

(* Forward reachability as a trivial boolean lattice: the solver must
   propagate the entry boundary fact and leave unreachable blocks at
   bottom. *)
module Reach = Gat_cfg.Dataflow.Make (struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end)

let test_dataflow_forward_reachability () =
  let p =
    Program.make ~name:"k" ~target:Gat_arch.Compute_capability.Sm35
      [
        block ~term:(Basic_block.Jump "BB2") "BB0" [];
        block "BB1" [] (* unreachable *);
        block "BB2" [];
      ]
  in
  let cfg = Gat_cfg.Cfg.of_program p in
  let r = Reach.solve ~init:true cfg ~transfer:(fun _ _ v -> v) in
  Alcotest.(check bool) "entry" true r.Reach.before.(0);
  Alcotest.(check bool) "unreachable stays bottom" false r.Reach.before.(1);
  Alcotest.(check bool) "target" true r.Reach.before.(2)

(* Backward "exit-reaching": exit blocks get the boundary fact, and it
   flows against the edges. *)
let test_dataflow_backward_boundary () =
  let p =
    Program.make ~name:"k" ~target:Gat_arch.Compute_capability.Sm35
      [ block ~term:(Basic_block.Jump "BB1") "BB0" []; block "BB1" [] ]
  in
  let cfg = Gat_cfg.Cfg.of_program p in
  let r =
    Reach.solve ~direction:Gat_cfg.Dataflow.Backward ~init:true cfg
      ~transfer:(fun _ _ v -> v)
  in
  Alcotest.(check bool) "exit block after" true r.Reach.after.(1);
  Alcotest.(check bool) "flows backward" true r.Reach.after.(0)

(* ---- Coalescing model ---- *)

let test_coalescing_granularity () =
  Alcotest.(check bool) "fermi lines" true
    (Coalescing.granularity_of_cc Gat_arch.Compute_capability.Sm20
    = Coalescing.Line128);
  Alcotest.(check bool) "kepler sectors" true
    (Coalescing.granularity_of_cc Gat_arch.Compute_capability.Sm35
    = Coalescing.Sector32);
  Alcotest.(check int) "128" 128 (Coalescing.segment_bytes Coalescing.Line128);
  Alcotest.(check int) "32" 32 (Coalescing.segment_bytes Coalescing.Sector32)

let test_coalescing_segments () =
  let seg g s = Coalescing.segments_per_warp g (Coalescing.Stride s) in
  (* Unit stride: one 128-byte line, four 32-byte sectors. *)
  Alcotest.(check int) "4B fermi" 1 (seg Coalescing.Line128 4);
  Alcotest.(check int) "4B kepler" 4 (seg Coalescing.Sector32 4);
  (* Stride 2 elements. *)
  Alcotest.(check int) "8B fermi" 2 (seg Coalescing.Line128 8);
  Alcotest.(check int) "8B kepler" 8 (seg Coalescing.Sector32 8);
  (* A full segment per lane. *)
  Alcotest.(check int) "128B fermi" 32 (seg Coalescing.Line128 128);
  Alcotest.(check int) "32B kepler" 32 (seg Coalescing.Sector32 32);
  (* Degenerate and worst cases. *)
  Alcotest.(check int) "broadcast" 1
    (Coalescing.segments_per_warp Coalescing.Line128 Coalescing.Broadcast);
  Alcotest.(check int) "unknown" 32
    (Coalescing.segments_per_warp Coalescing.Line128 Coalescing.Unknown)

let test_coalescing_patterns () =
  let pat v = Coalescing.pattern_of_address v in
  Alcotest.(check bool) "const -> broadcast" true
    (pat (Affine.const 64) = Coalescing.Broadcast);
  Alcotest.(check bool) "unit -> stride" true
    (pat (Affine.mul tid_value (Affine.const 4)) = Coalescing.Stride 4);
  let column =
    Affine.mul tid_value (Affine.mul (Affine.const 4) (Affine.uniform ~mag:1))
  in
  Alcotest.(check bool) "column -> large" true
    (match pat column with Coalescing.Large _ -> true | _ -> false);
  Alcotest.(check bool) "top -> unknown" true
    (pat Affine.top = Coalescing.Unknown)

(* ---- Bank conflicts ---- *)

let test_bank_modes () =
  Alcotest.(check bool) "kepler 8B" true
    (Bank_conflicts.mode_of_cc Gat_arch.Compute_capability.Sm35
    = Bank_conflicts.B8);
  Alcotest.(check bool) "fermi 4B" true
    (Bank_conflicts.mode_of_cc Gat_arch.Compute_capability.Sm20
    = Bank_conflicts.B4);
  Alcotest.(check int) "banks" 32 Bank_conflicts.banks

let test_bank_replay () =
  let r4 = Bank_conflicts.replay_of_stride Bank_conflicts.B4 in
  Alcotest.(check int) "broadcast" 1 (r4 0);
  Alcotest.(check int) "unit" 1 (r4 4);
  Alcotest.(check int) "2-way" 2 (r4 8);
  Alcotest.(check int) "16-way" 16 (r4 64);
  Alcotest.(check int) "32-way" 32 (r4 128);
  let r8 = Bank_conflicts.replay_of_stride Bank_conflicts.B8 in
  (* Two 4-byte lanes share one 8-byte word: still conflict-free. *)
  Alcotest.(check int) "half word" 1 (r8 4);
  Alcotest.(check int) "word" 1 (r8 8);
  Alcotest.(check int) "2-way" 2 (r8 16);
  Alcotest.(check int) "32-way" 32 (r8 256)

(* ---- Kernel-level analysis ---- *)

let accesses_of kernel gpu =
  List.concat_map snd (compile kernel gpu).Gat_compiler.Driver.mem_summary

let test_atax_column_reads_uncoalesced () =
  let accesses = accesses_of Gat_workloads.Workloads.atax Gat_arch.Gpu.m2050 in
  let strided = List.filter Coalescing.uncoalesced accesses in
  Alcotest.(check int) "two column reads of A" 2 (List.length strided);
  List.iter
    (fun (a : Coalescing.access) ->
      Alcotest.(check int) "all 32 lines" 32 a.Coalescing.segments;
      Alcotest.(check (float 1e-9)) "32 transactions" 32.0
        a.Coalescing.transactions)
    strided

let test_flat_decompositions_coalesce () =
  (* matvec2d and ex14fj rebuild a flat index from div/mod pieces; the
     affine algebra must cancel the decomposition and see unit stride. *)
  List.iter
    (fun kernel ->
      let accesses = accesses_of kernel Gat_arch.Gpu.k20 in
      Alcotest.(check bool) "has accesses" true (accesses <> []);
      List.iter
        (fun (a : Coalescing.access) ->
          Alcotest.(check bool) "coalesced" true
            (a.Coalescing.transactions <= 1.0))
        accesses)
    [ Gat_workloads.Workloads.matvec2d; Gat_workloads.Workloads.ex14fj ]

(* The simulator's memory model must order analysis-derived accesses:
   a strided (column) access costs strictly more latency and traffic
   than a unit-stride or broadcast one.  This pins the wiring of the
   static analysis into the memory model. *)
let test_memory_model_orders_strides () =
  List.iter
    (fun gpu ->
      let accesses = accesses_of Gat_workloads.Workloads.atax gpu in
      let strided =
        List.find (fun a -> Coalescing.uncoalesced a) accesses
      in
      let unit =
        List.find (fun (a : Coalescing.access) -> a.Coalescing.segments = 1)
          accesses
      in
      Alcotest.(check bool) "more transactions" true
        (Gat_analysis.Memory_model.access_transactions strided
        > Gat_analysis.Memory_model.access_transactions unit);
      let lat a =
        Gat_analysis.Memory_model.access_latency gpu ~l1_pref_kb:16 ~staging:1 a
      in
      Alcotest.(check bool) "higher latency" true (lat strided > lat unit))
    [ Gat_arch.Gpu.m2050; Gat_arch.Gpu.k20; Gat_arch.Gpu.p100 ]

let test_effective_intensity_band () =
  (* The transaction factor can only lower the band: an uncoalesced
     kernel must not move from Lower to Upper. *)
  let mix =
    Gat_core.Imix.static_of_program
      (compile Gat_workloads.Workloads.atax Gat_arch.Gpu.k20)
        .Gat_compiler.Driver.program
  in
  let raw = Gat_core.Imix.intensity mix in
  let eff =
    Gat_core.Rules.effective_intensity mix ~mem_transaction_factor:8.0
  in
  Alcotest.(check bool) "factor lowers intensity" true (eff < raw);
  Alcotest.(check (float 1e-9)) "factor 1 is identity" raw
    (Gat_core.Rules.effective_intensity mix ~mem_transaction_factor:1.0)

(* ---- Lint golden output ---- *)

let atax_m2050_golden =
  String.concat "\n"
    [
      "lint: atax on M2050 (sm_20)";
      "===========================";
      "";
      "global memory (128B segments):";
      "  BB5 +2  LDG  load   stride 4nB   32 seg/warp  32.00x128B  UNCOALESCED";
      "  BB5 +4  LDG  load   broadcast     1 seg/warp   1.00x128B  ok";
      "  BB8 +2  LDG  load   stride 4nB   32 seg/warp  32.00x128B  UNCOALESCED";
      "  BB8 +4  LDG  load   broadcast     1 seg/warp   1.00x128B  ok";
      "  BB8 +7  STG  store  broadcast     1 seg/warp   1.00x128B  ok";
      "  2/5 accesses uncoalesced";
      "";
      "shared memory (32 banks x 4B):";
      "  no shared-memory accesses";
      "";
      "divergence:";
      "  1/3 conditional branches divergent (33.3%): BB1";
      "";
      "spills:";
      "  none";
      "";
      "verify (TC=128):";
      "  barriers: 0 (1 interval), shared accesses: 0";
      "  verdict: SAFE";
      "";
      "occupancy:";
      "  66.7% (32/48 warps), limited by warps";
      "";
      "unreachable blocks:";
      "  none";
    ]

let matvec2d_k20_golden =
  String.concat "\n"
    [
      "lint: matvec2d on K20 (sm_35)";
      "=============================";
      "";
      "global memory (32B segments):";
      "  BB2 +10 LDG  load   stride 4B     4 seg/warp   1.00x128B  ok";
      "  BB2 +12 LDG  load   broadcast     1 seg/warp   0.25x128B  ok";
      "  BB2 +14 LDG  load   broadcast     1 seg/warp   0.25x128B  ok";
      "  BB2 +17 STG  store  broadcast     1 seg/warp   0.25x128B  ok";
      "  0/4 accesses uncoalesced";
      "";
      "shared memory (32 banks x 8B):";
      "  no shared-memory accesses";
      "";
      "divergence:";
      "  1/1 conditional branches divergent (100.0%): BB1";
      "";
      "spills:";
      "  none";
      "";
      "verify (TC=128):";
      "  barriers: 0 (1 interval), shared accesses: 0";
      "  verdict: SAFE";
      "";
      "occupancy:";
      "  100.0% (64/64 warps), limited by warps";
      "";
      "unreachable blocks:";
      "  none";
    ]

let test_lint_golden_atax () =
  Alcotest.(check string) "atax m2050"
    atax_m2050_golden
    (String.trim (lint Gat_workloads.Workloads.atax Gat_arch.Gpu.m2050))

let test_lint_golden_matvec2d () =
  Alcotest.(check string) "matvec2d k20"
    matvec2d_k20_golden
    (String.trim (lint Gat_workloads.Workloads.matvec2d Gat_arch.Gpu.k20))

let test_lint_all_kernels_render () =
  (* Every paper kernel on every device renders the full section list
     and reports per-access stride and transactions. *)
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          let out = lint kernel gpu in
          List.iter
            (fun section ->
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s has %s" kernel.Gat_ir.Kernel.name
                   gpu.Gat_arch.Gpu.name section)
                true (contains out section))
            [
              "global memory"; "shared memory"; "divergence:"; "spills:";
              "occupancy:"; "unreachable blocks:"; "seg/warp"; "x128B";
            ])
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all

let test_lint_diagnoses_atax_bicg () =
  List.iter
    (fun kernel ->
      let out = lint kernel Gat_arch.Gpu.k20 in
      Alcotest.(check bool) "uncoalesced diagnostic" true
        (contains out "UNCOALESCED"))
    [ Gat_workloads.Workloads.atax; Gat_workloads.Workloads.bicg ]

let () =
  Alcotest.run "gat_analysis"
    [
      ( "affine",
        [
          Alcotest.test_case "const algebra" `Quick test_affine_const_algebra;
          Alcotest.test_case "tid stride" `Quick test_affine_tid_stride;
          Alcotest.test_case "uniform scaling" `Quick test_affine_uniform_scaling;
          Alcotest.test_case "recip cancels" `Quick test_affine_recip_cancels;
          Alcotest.test_case "join widens" `Quick test_affine_join_widens_loop_delta;
          Alcotest.test_case "coeff strings" `Quick test_affine_coeff_strings;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "forward reachability" `Quick
            test_dataflow_forward_reachability;
          Alcotest.test_case "backward boundary" `Quick
            test_dataflow_backward_boundary;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "granularity" `Quick test_coalescing_granularity;
          Alcotest.test_case "segments" `Quick test_coalescing_segments;
          Alcotest.test_case "patterns" `Quick test_coalescing_patterns;
        ] );
      ( "bank conflicts",
        [
          Alcotest.test_case "modes" `Quick test_bank_modes;
          Alcotest.test_case "replay" `Quick test_bank_replay;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "atax uncoalesced" `Quick
            test_atax_column_reads_uncoalesced;
          Alcotest.test_case "flat decompositions" `Quick
            test_flat_decompositions_coalesce;
          Alcotest.test_case "memory model ordering" `Quick
            test_memory_model_orders_strides;
          Alcotest.test_case "effective intensity" `Quick
            test_effective_intensity_band;
        ] );
      ( "lint",
        [
          Alcotest.test_case "golden atax" `Quick test_lint_golden_atax;
          Alcotest.test_case "golden matvec2d" `Quick test_lint_golden_matvec2d;
          Alcotest.test_case "all kernels render" `Quick
            test_lint_all_kernels_render;
          Alcotest.test_case "diagnoses atax/bicg" `Quick
            test_lint_diagnoses_atax_bicg;
        ] );
    ]
