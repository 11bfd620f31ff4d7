open Gat_arch
open Gat_isa
module Driver = Gat_compiler.Driver
module Profile = Gat_compiler.Profile
module Params = Gat_compiler.Params
module Block_table = Gat_compiler.Block_table
module Memory_model = Gat_analysis.Memory_model

type result = {
  cycles : float;
  time_ms : float;
  occupancy : float;
  active_blocks : int;
  waves : int;
  issue_cycles : float;
  mem_cycles : float;
  latency_cycles : float;
  bound : [ `Issue | `Bandwidth | `Latency ];
  dynamic_mix : Gat_core.Imix.t;
  transactions : float;
  lane_utilization : float;
}

(* Resident blocks per SM, honouring the L1-preference shared-memory
   carveout where it exists; if the carveout would make the kernel
   unlaunchable the hardware ignores the preference (it is a hint). *)
let residency (c : Driver.compiled) =
  let gpu = c.Driver.gpu in
  let params = c.Driver.params in
  let occ_input =
    Gat_core.Occupancy.input
      ~regs_per_thread:c.Driver.log.Gat_compiler.Ptxas_info.registers
      ~smem_per_block:(Program.smem_per_block c.Driver.program)
      ~threads_per_block:params.Params.threads_per_block ()
  in
  let constrained =
    match
      Memory_model.smem_per_mp_effective gpu
        ~l1_pref_kb:params.Params.l1_pref_kb
    with
    | Some smem_per_mp ->
        Gat_core.Occupancy.calculate_with ~smem_per_mp gpu occ_input
    | None -> Gat_core.Occupancy.calculate gpu occ_input
  in
  if constrained.Gat_core.Occupancy.active_blocks > 0 then constrained
  else Gat_core.Occupancy.calculate gpu occ_input

(* Warp-instruction issue cost: 32 thread-ops through a pipeline of
   [ipc] ops/cycle. *)
let warp_issue_cycles gpu op =
  32.0 /. Throughput.ipc gpu.Gpu.cc (Opcode.category op)

let categories = Array.of_list Throughput.all_categories

let single_instruction_mix ins =
  let per_category = Array.make (Array.length categories) 0.0 in
  Array.iteri
    (fun i c -> if c = Opcode.category ins.Instruction.op then per_category.(i) <- 1.0)
    categories;
  {
    Gat_core.Imix.per_category;
    reg_operands = float_of_int (Instruction.register_operands ins);
  }

(* The SM-distribution tail of the model, shared by the flattened and
   reference paths: everything after the per-block aggregation is a
   closed-form function of the accumulated totals. *)
let finish (c : Driver.compiled) ~n ~(occ : Gat_core.Occupancy.result)
    ~issue_cycles ~load_issues ~transactions ~barrier_issues ~weighted_lanes
    ~total_issues ~mix ~lat_weighted =
  let gpu = c.Driver.gpu in
  let params = c.Driver.params in
  let profile = c.Driver.profile in
  (* Distribute over SMs.  Grid-stride work lives in the first
     [ceil(work / TC)] blocks; when the launch has more threads than
     work items, only those blocks' SMs are busy and the rest retire
     almost immediately — concentrating all traffic on a few SMs.  The
     busiest SM sets the kernel's duration. *)
  let n_sm = gpu.Gpu.multiprocessors in
  let bc = params.Params.block_count in
  let tc = params.Params.threads_per_block in
  let work = profile.Profile.work_items n in
  let working_blocks = max 1 (min bc ((work + tc - 1) / tc)) in
  let busy_sms = min n_sm working_blocks in
  let blocks_busy_sm = (working_blocks + busy_sms - 1) / busy_sms in
  let sm_share = float_of_int blocks_busy_sm /. float_of_int working_blocks in
  let active_blocks = max 1 occ.Gat_core.Occupancy.active_blocks in
  let waves = (blocks_busy_sm + active_blocks - 1) / active_blocks in
  let resident_warps_avg =
    Float.min
      (float_of_int occ.Gat_core.Occupancy.active_warps)
      (float_of_int (blocks_busy_sm * occ.Gat_core.Occupancy.warps_per_block)
      /. float_of_int (max 1 waves))
  in
  let issue_sm = issue_cycles *. sm_share in
  (* Barrier synchronization: each barrier stalls proportionally to the
     warps it gathers. *)
  let barrier_sm =
    barrier_issues *. sm_share *. 2.0
    *. float_of_int occ.Gat_core.Occupancy.warps_per_block
  in
  (* Only warps that have work can hide each other's latency or keep
     memory requests in flight; idle warps retire immediately.  Grid-
     stride assigns work to the first ceil(min(work,T)/32) warps. *)
  let total_threads = tc * bc in
  let working_warps =
    Float.max 1.0 (Float.of_int (min work total_threads) /. 32.0)
  in
  let warps_busy_sm =
    Float.min resident_warps_avg (working_warps /. float_of_int busy_sms)
  in
  let avg_load_latency =
    if load_issues > 0.0 then lat_weighted /. load_issues else 1.0
  in
  (* Little's law: achievable per-SM bandwidth is bounded by in-flight
     requests (warps x memory-level parallelism) over latency. *)
  let mlp = 4.0 in
  let achievable_bw =
    Float.min
      (Memory_model.bytes_per_cycle_per_sm gpu)
      (Float.max 0.25 (warps_busy_sm *. mlp *. 128.0 /. avg_load_latency))
  in
  let mem_sm = transactions *. sm_share *. 128.0 /. achievable_bw in
  let latency_sm = lat_weighted *. sm_share /. Float.max 1.0 warps_busy_sm in
  let launch_overhead = 600.0 +. (300.0 *. float_of_int waves) in
  let issue_total = issue_sm +. barrier_sm in
  let cycles =
    launch_overhead +. Float.max issue_total (Float.max mem_sm latency_sm)
  in
  let bound =
    if issue_total >= mem_sm && issue_total >= latency_sm then `Issue
    else if mem_sm >= latency_sm then `Bandwidth
    else `Latency
  in
  let time_ms = cycles /. (float_of_int gpu.Gpu.gpu_clock_mhz *. 1000.0) in
  {
    cycles;
    time_ms;
    occupancy = occ.Gat_core.Occupancy.occupancy;
    active_blocks;
    waves;
    issue_cycles;
    mem_cycles = mem_sm;
    latency_cycles = latency_sm;
    bound;
    dynamic_mix = mix;
    transactions;
    lane_utilization =
      (if total_issues > 0.0 then weighted_lanes /. total_issues else 1.0);
  }

(* The flattened hot path: one pass over the precomputed block table.
   Accumulation replays the reference fold's exact floating-point
   operation sequence per accumulator (see Block_table), so the result
   is bit-identical to [run_reference] while doing no list traversal
   and no per-instruction allocation. *)
let run_impl (c : Driver.compiled) ~n =
  let tbl = c.Driver.block_table in
  let sh = tbl.Block_table.shape in
  let profile = c.Driver.profile in
  let occ = tbl.Block_table.residency in
  let nb = sh.Block_table.n_blocks in
  let ncat = sh.Block_table.n_categories in
  (* Align the profile's per-size aggregates with block layout order. *)
  let execs = Array.make nb 0.0 in
  let lanes = Array.make nb 1.0 in
  let seen = Array.make nb false in
  (* First binding wins, matching [Profile.find_counts]'s assoc lookup;
     absent labels keep the zero aggregate (execs 0, full lanes). *)
  List.iter
    (fun (label, (agg : Profile.agg)) ->
      match Hashtbl.find_opt sh.Block_table.index label with
      | Some i when not seen.(i) ->
          seen.(i) <- true;
          execs.(i) <- agg.Profile.execs;
          lanes.(i) <- agg.Profile.lanes
      | _ -> ())
    (profile.Profile.block_counts n);
  let issue_cycles = ref 0.0 in
  let load_issues = ref 0.0 in
  let transactions = ref 0.0 in
  let barrier_issues = ref 0.0 in
  let weighted_lanes = ref 0.0 in
  let total_issues = ref 0.0 in
  let lat_weighted = ref 0.0 in
  let per_category = Array.make ncat 0.0 in
  let reg_operands = ref 0.0 in
  for i = 0 to nb - 1 do
    let e = Array.unsafe_get execs i in
    if e > 0.0 then begin
      issue_cycles :=
        !issue_cycles +. (e *. Array.unsafe_get sh.Block_table.issue_cycles i);
      load_issues :=
        !load_issues +. (e *. Array.unsafe_get sh.Block_table.global_loads i);
      barrier_issues :=
        !barrier_issues +. (e *. Array.unsafe_get sh.Block_table.barriers i);
      let trans = Array.unsafe_get sh.Block_table.mem_transactions i in
      for a = 0 to Array.length trans - 1 do
        transactions := !transactions +. (e *. Array.unsafe_get trans a)
      done;
      let lats = Array.unsafe_get tbl.Block_table.mem_load_latency i in
      for a = 0 to Array.length lats - 1 do
        lat_weighted := !lat_weighted +. (e *. Array.unsafe_get lats a)
      done;
      let instr_count = Array.unsafe_get sh.Block_table.instr_counts i in
      total_issues := !total_issues +. (e *. instr_count);
      weighted_lanes :=
        !weighted_lanes +. (e *. instr_count *. Array.unsafe_get lanes i);
      (* Per-category counts: the reference adds [e] once per matching
         instruction, so a category seen [k] times contributes the
         [k]-fold repeated sum of [e] (not [k *. e], which may round
         differently for fractional [e]). *)
      let mc = Array.unsafe_get sh.Block_table.mix_counts i in
      for cat = 0 to ncat - 1 do
        let k = Array.unsafe_get mc cat in
        if k > 0 then begin
          let s = ref e in
          for _ = 2 to k do
            s := !s +. e
          done;
          Array.unsafe_set per_category cat
            (Array.unsafe_get per_category cat +. !s)
        end
      done;
      let regs = Array.unsafe_get sh.Block_table.reg_ops i in
      let racc = ref 0.0 in
      for j = 0 to Array.length regs - 1 do
        racc := !racc +. (e *. Array.unsafe_get regs j)
      done;
      reg_operands := !reg_operands +. !racc
    end
  done;
  finish c ~n ~occ ~issue_cycles:!issue_cycles ~load_issues:!load_issues
    ~transactions:!transactions ~barrier_issues:!barrier_issues
    ~weighted_lanes:!weighted_lanes ~total_issues:!total_issues
    ~mix:{ Gat_core.Imix.per_category; reg_operands = !reg_operands }
    ~lat_weighted:!lat_weighted

let m_runs = Gat_util.Metrics.counter "sim.runs"

(* Counting and (when enabled) tracing live in a wrapper so the hot
   path above stays branch-free; the disabled-trace cost is one atomic
   increment and one [Atomic.get]. *)
let run (c : Driver.compiled) ~n =
  Gat_util.Metrics.incr m_runs;
  if not (Gat_util.Trace.on ()) then run_impl c ~n
  else
    Gat_util.Trace.span "simulate"
      ~args:
        [
          ("kernel", Gat_util.Trace.S c.Driver.kernel.Gat_ir.Kernel.name);
          ("gpu", Gat_util.Trace.S c.Driver.gpu.Gat_arch.Gpu.name);
          ("params", Gat_util.Trace.S (Params.to_string c.Driver.params));
          ("n", Gat_util.Trace.I n);
        ]
      (fun () -> run_impl c ~n)

(* The original list-based path, kept verbatim as the executable
   specification: the equivalence suite asserts [run] returns
   bit-identical results across every bundled kernel, device and input
   size. *)
let run_reference (c : Driver.compiled) ~n =
  let gpu = c.Driver.gpu in
  let params = c.Driver.params in
  let profile = c.Driver.profile in
  let occ = residency c in
  let program = c.Driver.program in
  (* Per-block static properties. *)
  let blocks = program.Program.blocks in
  let issue_cost_of_block b =
    List.fold_left
      (fun acc ins -> acc +. warp_issue_cycles gpu ins.Instruction.op)
      (warp_issue_cycles gpu
         (Basic_block.terminator_instruction b).Instruction.op)
      b.Basic_block.body
  in
  let global_loads_of_block b =
    List.fold_left
      (fun acc ins ->
        if Opcode.is_global_memory ins.Instruction.op && Opcode.is_load ins.Instruction.op
        then acc + 1
        else acc)
      0 b.Basic_block.body
  in
  let barrier_count_of_block b =
    List.fold_left
      (fun acc ins -> if Opcode.is_barrier ins.Instruction.op then acc + 1 else acc)
      0 b.Basic_block.body
  in
  (* Aggregate over blocks using the exact profile counts. *)
  let issue_cycles = ref 0.0 in
  let load_issues = ref 0.0 in
  let transactions = ref 0.0 in
  let barrier_issues = ref 0.0 in
  let weighted_lanes = ref 0.0 in
  let total_issues = ref 0.0 in
  let mix = ref Gat_core.Imix.zero in
  let lat_weighted = ref 0.0 in
  List.iter
    (fun b ->
      let label = b.Basic_block.label in
      let agg = Profile.find_counts profile ~n label in
      let e = agg.Profile.execs in
      if e > 0.0 then begin
        issue_cycles := !issue_cycles +. (e *. issue_cost_of_block b);
        load_issues :=
          !load_issues +. (e *. float_of_int (global_loads_of_block b));
        barrier_issues :=
          !barrier_issues +. (e *. float_of_int (barrier_count_of_block b));
        let accesses =
          Option.value ~default:[]
            (List.assoc_opt label c.Driver.mem_summary)
        in
        List.iter
          (fun (a : Gat_analysis.Coalescing.access) ->
            transactions :=
              !transactions
              +. (e *. Memory_model.access_transactions a);
            if a.Gat_analysis.Coalescing.kind = `Load then
              lat_weighted :=
                !lat_weighted
                +. e
                   *. Memory_model.access_latency gpu
                        ~l1_pref_kb:params.Params.l1_pref_kb
                        ~staging:params.Params.staging a)
          accesses;
        (* Dynamic instruction counts: warp-level issues per category. *)
        let instr_count = float_of_int (Basic_block.instruction_count b) in
        total_issues := !total_issues +. (e *. instr_count);
        weighted_lanes :=
          !weighted_lanes +. (e *. instr_count *. agg.Profile.lanes);
        let block_mix =
          List.fold_left
            (fun acc ins ->
              Gat_core.Imix.add acc
                (Gat_core.Imix.scale e (single_instruction_mix ins)))
            Gat_core.Imix.zero
            (b.Basic_block.body
            @ [ Basic_block.terminator_instruction b ])
        in
        mix := Gat_core.Imix.add !mix block_mix
      end)
    blocks;
  finish c ~n ~occ ~issue_cycles:!issue_cycles ~load_issues:!load_issues
    ~transactions:!transactions ~barrier_issues:!barrier_issues
    ~weighted_lanes:!weighted_lanes ~total_issues:!total_issues ~mix:!mix
    ~lat_weighted:!lat_weighted

let measured_time_ms c ~n ~rng =
  let base = (run c ~n).time_ms in
  base *. Gat_util.Rng.lognormal rng ~mu:0.0 ~sigma:0.02
