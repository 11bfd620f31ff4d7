type t = {
  kernel_name : string;
  target : Gat_arch.Compute_capability.t;
  registers : int;
  smem_static : int;
  smem_dynamic : int;
  spill_loads : int;
  spill_stores : int;
  stack_frame : int;
}

let of_program (p : Gat_isa.Program.t) (stats : Regalloc.stats) =
  {
    kernel_name = p.Gat_isa.Program.name;
    target = p.Gat_isa.Program.target;
    registers = stats.Regalloc.regs_used;
    smem_static = p.Gat_isa.Program.smem_static;
    smem_dynamic = p.Gat_isa.Program.smem_dynamic;
    spill_loads = stats.Regalloc.spill_loads;
    spill_stores = stats.Regalloc.spill_stores;
    stack_frame = 4 * stats.Regalloc.spilled_values;
  }

let render t =
  Printf.sprintf
    "ptxas info    : Compiling entry function '%s' for '%s'\n\
     ptxas info    : Function properties for %s\n\
    \    %d bytes stack frame, %d bytes spill stores, %d bytes spill loads\n\
     ptxas info    : Used %d registers, %d+%d bytes smem\n"
    t.kernel_name
    (Gat_arch.Compute_capability.to_string t.target)
    t.kernel_name t.stack_frame (4 * t.spill_stores) (4 * t.spill_loads)
    t.registers t.smem_static t.smem_dynamic
