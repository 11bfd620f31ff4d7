open Gat_arch
open Gat_isa
module Memory_model = Gat_analysis.Memory_model
module Coalescing = Gat_analysis.Coalescing

type shape = {
  n_blocks : int;
  n_categories : int;
  labels : string array;
  index : (string, int) Hashtbl.t;
  issue_cycles : float array;
  global_loads : float array;
  barriers : float array;
  instr_counts : float array;
  mix_counts : int array array;
  reg_ops : float array array;
  mem_transactions : float array array;
  loads : Coalescing.access array array;
}

type t = {
  shape : shape;
  residency : Gat_core.Occupancy.result;
  mem_load_latency : float array array;
}

let categories = Array.of_list Throughput.all_categories
let n_categories = Array.length categories

let category_index =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace tbl c i) categories;
  fun c -> Hashtbl.find tbl c

let warp_issue_cycles gpu op =
  32.0 /. Throughput.ipc gpu.Gpu.cc (Opcode.category op)

(* Resident blocks per SM, honouring the L1-preference shared-memory
   carveout where it exists; if the carveout would make the kernel
   unlaunchable the hardware ignores the preference (it is a hint).
   Size-independent, so resolved once per compiled variant. *)
let residency gpu (params : Params.t) ~regs_per_thread ~smem_per_block =
  let occ_input =
    Gat_core.Occupancy.input ~regs_per_thread ~smem_per_block
      ~threads_per_block:params.Params.threads_per_block ()
  in
  let constrained =
    match
      Memory_model.smem_per_mp_effective gpu ~l1_pref_kb:params.Params.l1_pref_kb
    with
    | Some smem_per_mp ->
        Gat_core.Occupancy.calculate_with ~smem_per_mp gpu occ_input
    | None -> Gat_core.Occupancy.calculate gpu occ_input
  in
  if constrained.Gat_core.Occupancy.active_blocks > 0 then constrained
  else Gat_core.Occupancy.calculate gpu occ_input

let shape ~gpu ~mem_summary program =
  let blocks = Array.of_list program.Program.blocks in
  let n_blocks = Array.length blocks in
  let labels = Array.map (fun b -> b.Basic_block.label) blocks in
  let index = Hashtbl.create (2 * n_blocks) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let issue_cycles = Array.make n_blocks 0.0 in
  let global_loads = Array.make n_blocks 0.0 in
  let barriers = Array.make n_blocks 0.0 in
  let instr_counts = Array.make n_blocks 0.0 in
  let mix_counts = Array.init n_blocks (fun _ -> Array.make n_categories 0) in
  let reg_ops = Array.make n_blocks [||] in
  let mem_transactions = Array.make n_blocks [||] in
  let loads = Array.make n_blocks [||] in
  Array.iteri
    (fun i b ->
      (* The issue cost folds terminator-first, then the body — the
         exact association order of the per-run fold it replaces, so
         the precomputed sum is bit-identical. *)
      issue_cycles.(i) <-
        List.fold_left
          (fun acc ins -> acc +. warp_issue_cycles gpu ins.Instruction.op)
          (warp_issue_cycles gpu
             (Basic_block.terminator_instruction b).Instruction.op)
          b.Basic_block.body;
      List.iter
        (fun ins ->
          if
            Opcode.is_global_memory ins.Instruction.op
            && Opcode.is_load ins.Instruction.op
          then global_loads.(i) <- global_loads.(i) +. 1.0;
          if Opcode.is_barrier ins.Instruction.op then
            barriers.(i) <- barriers.(i) +. 1.0)
        b.Basic_block.body;
      instr_counts.(i) <- float_of_int (Basic_block.instruction_count b);
      (* Instruction mix: static per-category counts plus the
         register-operand sequence in body-then-terminator order (the
         order the accumulation must replay to stay bit-identical). *)
      let instrs = b.Basic_block.body @ [ Basic_block.terminator_instruction b ] in
      let mc = mix_counts.(i) in
      List.iter
        (fun ins ->
          let ci = category_index (Opcode.category ins.Instruction.op) in
          mc.(ci) <- mc.(ci) + 1)
        instrs;
      reg_ops.(i) <-
        Array.of_list
          (List.map
             (fun ins -> float_of_int (Instruction.register_operands ins))
             instrs);
      let accesses =
        Option.value ~default:[]
          (List.assoc_opt b.Basic_block.label mem_summary)
      in
      mem_transactions.(i) <-
        Array.of_list (List.map Memory_model.access_transactions accesses);
      loads.(i) <-
        Array.of_list
          (List.filter (fun (a : Coalescing.access) -> a.Coalescing.kind = `Load)
             accesses))
    blocks;
  {
    n_blocks;
    n_categories;
    labels;
    index;
    issue_cycles;
    global_loads;
    barriers;
    instr_counts;
    mix_counts;
    reg_ops;
    mem_transactions;
    loads;
  }

let instantiate shape ~gpu ~(params : Params.t) ~regs_per_thread ~smem_per_block =
  {
    shape;
    residency = residency gpu params ~regs_per_thread ~smem_per_block;
    mem_load_latency =
      Array.map
        (Array.map
           (Memory_model.access_latency gpu ~l1_pref_kb:params.Params.l1_pref_kb
              ~staging:params.Params.staging))
        shape.loads;
  }
