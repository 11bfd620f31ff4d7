(* Tests for gat_sim: the memory model and the SM-level timing engine. *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

open Gat_sim
module Memory_model = Gat_analysis.Memory_model
module Gpu = Gat_arch.Gpu
module Params = Gat_compiler.Params
module Driver = Gat_compiler.Driver

let compile ?(gpu = Gpu.k20) ?(params = Params.default) kernel =
  Driver.compile_exn kernel gpu params

(* ---- Memory model ---- *)

let test_bandwidths_positive () =
  List.iter
    (fun gpu ->
      Alcotest.(check bool) "gb/s" true (Memory_model.peak_bandwidth_gbs gpu > 0.0);
      Alcotest.(check bool) "b/cyc/sm" true (Memory_model.bytes_per_cycle_per_sm gpu > 0.0))
    Gpu.all

let test_bandwidth_ordering () =
  Alcotest.(check bool) "P100 fastest" true
    (Memory_model.peak_bandwidth_gbs Gpu.p100 > Memory_model.peak_bandwidth_gbs Gpu.m2050)

let test_hit_fraction_bounds () =
  List.iter
    (fun gpu ->
      List.iter
        (fun transactions ->
          List.iter
            (fun pl ->
              let h = Memory_model.l1_hit_fraction gpu ~l1_pref_kb:pl ~transactions in
              Alcotest.(check bool) "in [0,1]" true (h >= 0.0 && h <= 1.0))
            [ 16; 48 ])
        [ 1.0; 2.0; 16.0; 32.0 ])
    Gpu.all

let test_l1_pref_helps_on_fermi () =
  let h16 = Memory_model.l1_hit_fraction Gpu.m2050 ~l1_pref_kb:16 ~transactions:1.0 in
  let h48 = Memory_model.l1_hit_fraction Gpu.m2050 ~l1_pref_kb:48 ~transactions:1.0 in
  Alcotest.(check bool) "48KB pref improves hits" true (h48 > h16)

let test_l1_pref_neutral_on_pascal () =
  let h16 = Memory_model.l1_hit_fraction Gpu.p100 ~l1_pref_kb:16 ~transactions:1.0 in
  let h48 = Memory_model.l1_hit_fraction Gpu.p100 ~l1_pref_kb:48 ~transactions:1.0 in
  Alcotest.(check (float 1e-9)) "no effect" h16 h48

let test_strided_caches_worse () =
  let coalesced = Memory_model.l1_hit_fraction Gpu.k20 ~l1_pref_kb:16 ~transactions:1.0 in
  let strided = Memory_model.l1_hit_fraction Gpu.k20 ~l1_pref_kb:16 ~transactions:32.0 in
  Alcotest.(check bool) "strided worse" true (strided < coalesced)

let test_effective_latency_staging () =
  let base =
    Memory_model.effective_latency Gpu.k20 ~l1_pref_kb:16 ~staging:1 ~transactions:4.0
  in
  let staged =
    Memory_model.effective_latency Gpu.k20 ~l1_pref_kb:16 ~staging:4 ~transactions:4.0
  in
  Alcotest.(check bool) "staging reduces latency" true (staged < base)

let test_smem_carveout () =
  Alcotest.(check (option int)) "Fermi PL=48 leaves 16K" (Some 16384)
    (Memory_model.smem_per_mp_effective Gpu.m2050 ~l1_pref_kb:48);
  Alcotest.(check (option int)) "Fermi PL=16 leaves 48K" (Some 49152)
    (Memory_model.smem_per_mp_effective Gpu.m2050 ~l1_pref_kb:16);
  Alcotest.(check (option int)) "Maxwell unaffected" None
    (Memory_model.smem_per_mp_effective Gpu.m40 ~l1_pref_kb:48)

(* ---- Engine ---- *)

let run ?(gpu = Gpu.k20) ?(params = Params.default) ?(n = 128) kernel =
  Engine.run (compile ~gpu ~params kernel) ~n

let test_engine_deterministic () =
  let a = run Gat_workloads.Workloads.atax in
  let b = run Gat_workloads.Workloads.atax in
  Alcotest.(check (float 0.0)) "same cycles" a.Engine.cycles b.Engine.cycles

let test_engine_time_positive () =
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          let r = run ~gpu kernel in
          Alcotest.(check bool) "positive time" true (r.Engine.time_ms > 0.0);
          Alcotest.(check bool) "cycles >= overhead" true (r.Engine.cycles > 100.0))
        Gpu.all)
    Gat_workloads.Workloads.all

let test_engine_monotone_in_n () =
  let kernel = Gat_workloads.Workloads.matvec2d in
  let prev = ref 0.0 in
  List.iter
    (fun n ->
      let r = run ~n kernel in
      Alcotest.(check bool)
        (Printf.sprintf "time grows at n=%d" n)
        true
        (r.Engine.time_ms >= !prev);
      prev := r.Engine.time_ms)
    [ 32; 64; 128; 256; 512 ]

let test_engine_occupancy_matches_core () =
  let c = compile Gat_workloads.Workloads.atax in
  let r = Engine.run c ~n:128 in
  let expected =
    Gat_core.Occupancy.calculate Gpu.k20
      (Gat_core.Occupancy.input
         ~regs_per_thread:c.Driver.log.Gat_compiler.Ptxas_info.registers
         ~threads_per_block:128 ())
  in
  Alcotest.(check (float 1e-9)) "occupancy agrees"
    expected.Gat_core.Occupancy.occupancy r.Engine.occupancy

let test_engine_divergence_reduces_lane_utilization () =
  let r = run ~n:32 Gat_workloads.Workloads.ex14fj in
  Alcotest.(check bool) "lanes < 1 under divergence" true
    (r.Engine.lane_utilization < 1.0);
  let r2 = run Gat_workloads.Workloads.matvec2d in
  Alcotest.(check bool) "uniform kernel nearly full lanes" true
    (r2.Engine.lane_utilization > 0.95)

let test_engine_transactions_scale_with_n () =
  let small = run ~n:64 Gat_workloads.Workloads.matvec2d in
  let large = run ~n:256 Gat_workloads.Workloads.matvec2d in
  (* 16x the elements -> about 16x the traffic. *)
  let ratio = large.Engine.transactions /. small.Engine.transactions in
  Alcotest.(check bool) "traffic scales" true (ratio > 8.0 && ratio < 32.0)

let test_engine_fast_math_faster_on_transcendental_kernel () =
  let kernel = Gat_workloads.Workloads.ex14fj in
  let precise = run ~n:64 kernel in
  let fast = run ~params:(Params.make ~fast_math:true ()) ~n:64 kernel in
  Alcotest.(check bool) "issue side shrinks" true
    (fast.Engine.issue_cycles < precise.Engine.issue_cycles)

let test_engine_dynamic_mix_positive () =
  let r = run Gat_workloads.Workloads.bicg in
  Alcotest.(check bool) "flops" true (Gat_core.Imix.ofl r.Engine.dynamic_mix > 0.0);
  Alcotest.(check bool) "mem" true (Gat_core.Imix.omem r.Engine.dynamic_mix > 0.0);
  Alcotest.(check bool) "ctrl" true (Gat_core.Imix.octrl r.Engine.dynamic_mix > 0.0);
  Alcotest.(check bool) "regs" true (Gat_core.Imix.oreg r.Engine.dynamic_mix > 0.0)

let test_engine_concentration_effect () =
  (* atax at N=512: huge blocks concentrate all work on one SM and lose
     to mid-sized blocks that spread across SMs. *)
  let time tc =
    (run ~n:512 ~params:(Params.make ~threads_per_block:tc ()) Gat_workloads.Workloads.atax)
      .Engine.time_ms
  in
  Alcotest.(check bool) "TC=128 beats TC=1024" true (time 128 < time 1024)

let test_engine_occupancy_effect_on_latency_bound () =
  (* matvec2d (abundant work): TC=32 gives 8 warps/SM on Kepler and
     should not beat a full-occupancy block size. *)
  let time tc =
    (run ~n:512 ~params:(Params.make ~threads_per_block:tc ()) Gat_workloads.Workloads.matvec2d)
      .Engine.time_ms
  in
  Alcotest.(check bool) "TC=256 beats TC=32" true (time 256 < time 32)

let test_engine_waves () =
  let r =
    run ~params:(Params.make ~threads_per_block:1024 ~block_count:192 ())
      ~n:512 Gat_workloads.Workloads.matvec2d
  in
  Alcotest.(check bool) "waves >= 1" true (r.Engine.waves >= 1)

let test_engine_l1_preference_unlaunchable_fallback () =
  (* Fermi, PL=48 leaves 16 KB shared per SM; a 20 KB block would be
     unlaunchable under the preference, so the hardware ignores it. *)
  let kernel = Gat_workloads.Workloads.matvec2d in
  let params =
    Params.make ~threads_per_block:1024 ~staging:5 ~l1_pref_kb:48 ()
  in
  (* staging 5 * 1024 threads * 4 B = 20 KB of dynamic shared memory. *)
  let c = compile ~gpu:Gpu.m2050 ~params kernel in
  let r = Engine.run c ~n:128 in
  Alcotest.(check bool) "still launches" true (r.Engine.active_blocks >= 1)

let test_measured_time_noise () =
  let c = compile Gat_workloads.Workloads.atax in
  let rng = Gat_util.Rng.create 5 in
  let base = (Engine.run c ~n:128).Engine.time_ms in
  for _ = 1 to 50 do
    let t = Engine.measured_time_ms c ~n:128 ~rng in
    Alcotest.(check bool) "within 20% of base" true
      (t > base *. 0.8 && t < base *. 1.2)
  done

let prop_engine_all_variants_positive =
  QCheck.Test.make ~count:40 ~name:"engine time positive across the space"
    QCheck.(
      quad (oneofl [ 32; 96; 128; 512; 1024 ]) (oneofl [ 24; 96; 192 ])
        (int_range 1 5) bool)
    (fun (tc, bc, uif, fm) ->
      let params =
        Params.make ~threads_per_block:tc ~block_count:bc ~unroll:uif
          ~fast_math:fm ()
      in
      let c = compile ~params Gat_workloads.Workloads.bicg in
      (Engine.run c ~n:128).Engine.time_ms > 0.0)

(* ---- flattened engine vs the reference path ----

   The block-table engine must return *bit-identical* results to the
   retained list-based implementation: every float field compares by
   its IEEE-754 bit pattern, not within a tolerance. *)

let check_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_result_identical ctx (a : Engine.result) (b : Engine.result) =
  check_bits (ctx ^ " cycles") a.Engine.cycles b.Engine.cycles;
  check_bits (ctx ^ " time_ms") a.Engine.time_ms b.Engine.time_ms;
  check_bits (ctx ^ " occupancy") a.Engine.occupancy b.Engine.occupancy;
  Alcotest.(check int) (ctx ^ " active_blocks") a.Engine.active_blocks
    b.Engine.active_blocks;
  Alcotest.(check int) (ctx ^ " waves") a.Engine.waves b.Engine.waves;
  check_bits (ctx ^ " issue_cycles") a.Engine.issue_cycles b.Engine.issue_cycles;
  check_bits (ctx ^ " mem_cycles") a.Engine.mem_cycles b.Engine.mem_cycles;
  check_bits (ctx ^ " latency_cycles") a.Engine.latency_cycles
    b.Engine.latency_cycles;
  Alcotest.(check bool) (ctx ^ " bound") true (a.Engine.bound = b.Engine.bound);
  check_bits (ctx ^ " transactions") a.Engine.transactions b.Engine.transactions;
  check_bits (ctx ^ " lane_utilization") a.Engine.lane_utilization
    b.Engine.lane_utilization;
  let am = a.Engine.dynamic_mix and bm = b.Engine.dynamic_mix in
  Alcotest.(check int)
    (ctx ^ " mix categories")
    (Array.length am.Gat_core.Imix.per_category)
    (Array.length bm.Gat_core.Imix.per_category);
  Array.iteri
    (fun i v ->
      check_bits
        (Printf.sprintf "%s mix[%d]" ctx i)
        v bm.Gat_core.Imix.per_category.(i))
    am.Gat_core.Imix.per_category;
  check_bits (ctx ^ " reg_operands") am.Gat_core.Imix.reg_operands
    bm.Gat_core.Imix.reg_operands

(* A parameter set exercising every engine feature: defaults, deep
   unrolling with fast math, the 48KB L1 preference (carveout path),
   staging, tiny and huge launches. *)
let equivalence_params =
  [
    Params.default;
    Params.make ~threads_per_block:256 ~block_count:192 ~unroll:4
      ~fast_math:true ();
    Params.make ~threads_per_block:512 ~block_count:24 ~l1_pref_kb:48
      ~staging:4 ();
    Params.make ~threads_per_block:32 ~block_count:8 ~unroll:2 ();
  ]

let test_engine_matches_reference_everywhere () =
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          List.iter
            (fun params ->
              match Driver.compile kernel gpu params with
              | Error _ -> ()
              | Ok c ->
                  List.iter
                    (fun n ->
                      let ctx =
                        Printf.sprintf "%s/%s/%s/n=%d"
                          kernel.Gat_ir.Kernel.name gpu.Gpu.name
                          (Params.to_string params) n
                      in
                      check_result_identical ctx (Engine.run c ~n)
                        (Engine.run_reference c ~n))
                    (Gat_workloads.Workloads.input_sizes kernel))
            equivalence_params)
        Gpu.all)
    Gat_workloads.Workloads.all

let prop_engine_matches_reference =
  QCheck.Test.make ~count:60 ~name:"flattened engine = reference (random points)"
    QCheck.(
      pair
        (quad (oneofl [ 32; 64; 128; 256; 512; 1024 ]) (oneofl [ 8; 24; 96; 384 ])
           (int_range 1 6) bool)
        (pair (oneofl [ 16; 48 ]) (int_range 1 8)))
    (fun ((tc, bc, uif, fm), (pl, sc)) ->
      let params =
        Params.make ~threads_per_block:tc ~block_count:bc ~unroll:uif
          ~l1_pref_kb:pl ~staging:sc ~fast_math:fm ()
      in
      match Driver.compile Gat_workloads.Workloads.matvec2d Gpu.m2050 params with
      | Error _ -> true
      | Ok c ->
          List.for_all
            (fun n ->
              let a = Engine.run c ~n and b = Engine.run_reference c ~n in
              Int64.bits_of_float a.Engine.time_ms
              = Int64.bits_of_float b.Engine.time_ms
              && Int64.bits_of_float a.Engine.cycles
                 = Int64.bits_of_float b.Engine.cycles
              && a.Engine.bound = b.Engine.bound)
            [ 16; 200; 1024 ])

let () =
  Alcotest.run "gat_sim"
    [
      ( "memory_model",
        [
          Alcotest.test_case "bandwidths" `Quick test_bandwidths_positive;
          Alcotest.test_case "ordering" `Quick test_bandwidth_ordering;
          Alcotest.test_case "hit bounds" `Quick test_hit_fraction_bounds;
          Alcotest.test_case "l1 pref fermi" `Quick test_l1_pref_helps_on_fermi;
          Alcotest.test_case "l1 pref pascal" `Quick test_l1_pref_neutral_on_pascal;
          Alcotest.test_case "strided worse" `Quick test_strided_caches_worse;
          Alcotest.test_case "staging latency" `Quick test_effective_latency_staging;
          Alcotest.test_case "smem carveout" `Quick test_smem_carveout;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "time positive" `Quick test_engine_time_positive;
          Alcotest.test_case "monotone in n" `Quick test_engine_monotone_in_n;
          Alcotest.test_case "occupancy matches core" `Quick test_engine_occupancy_matches_core;
          Alcotest.test_case "divergence lanes" `Quick test_engine_divergence_reduces_lane_utilization;
          Alcotest.test_case "traffic scales" `Quick test_engine_transactions_scale_with_n;
          Alcotest.test_case "fast math issue side" `Quick test_engine_fast_math_faster_on_transcendental_kernel;
          Alcotest.test_case "dynamic mix" `Quick test_engine_dynamic_mix_positive;
          Alcotest.test_case "concentration effect" `Quick test_engine_concentration_effect;
          Alcotest.test_case "occupancy effect" `Quick test_engine_occupancy_effect_on_latency_bound;
          Alcotest.test_case "waves" `Quick test_engine_waves;
          Alcotest.test_case "l1 pref fallback" `Quick test_engine_l1_preference_unlaunchable_fallback;
          Alcotest.test_case "measurement noise" `Quick test_measured_time_noise;
          QCheck_alcotest.to_alcotest prop_engine_all_variants_positive;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "all kernels x gpus x sizes" `Quick
            test_engine_matches_reference_everywhere;
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
        ] );
    ]
