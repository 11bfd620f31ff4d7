(** Flat per-block static summary of a compiled variant.

    Everything the simulator's hot loop needs that does not depend on
    the problem size is derived from linked structures once — per-block
    issue cycles, global-load and barrier counts, per-category static
    instruction mixes, register-operand sequences, pre-resolved memory
    transaction/latency factors, and the resident occupancy — and
    stored in arrays indexed by block layout order.
    {!Gat_sim.Engine.run} then reduces each simulation to array loops
    over this table, with no list traversal, no [assoc] scans and no
    per-instruction allocation.

    The table has two parts.  The {!shape} reads only the compiled code
    and its coalescing summary, which launch geometry never changes:
    {!Codegen_cache} builds it once per code shape and every variant of
    the TC×BC plane shares it.  {!instantiate} adds what a variant's
    parameters do change — the residency (TC, PL, registers, shared
    memory) and the load latencies (PL, SC) — on every compile.

    Layout invariant: index [i] corresponds to the [i]-th block of
    [program.blocks]; [labels], [index] and every per-block array agree
    on that numbering.  The floating-point contents replicate the exact
    folds of the legacy per-run computation (terminator-first issue
    cost, body-then-terminator operand order), so an engine that
    replays them is bit-identical to the list-based path — asserted by
    the equivalence suite in [test_sim].  Nothing mutates a table after
    it is built; the shared arrays are read-only by convention. *)

type shape = {
  n_blocks : int;
  n_categories : int;  (** [List.length Throughput.all_categories]. *)
  labels : string array;  (** Block labels in layout order. *)
  index : (string, int) Hashtbl.t;  (** Label -> block index. *)
  issue_cycles : float array;
      (** Warp-issue cycles of one execution of each block. *)
  global_loads : float array;  (** Global-memory loads per block. *)
  barriers : float array;  (** Barrier instructions per block. *)
  instr_counts : float array;
      (** Instructions per block, terminator included. *)
  mix_counts : int array array;
      (** [mix_counts.(block).(cat)]: static instruction count of
          category [cat] (Table II order). *)
  reg_ops : float array array;
      (** [reg_ops.(block)]: register-operand count of each instruction
          in body-then-terminator order. *)
  mem_transactions : float array array;
      (** [mem_transactions.(block)]: 128-byte transaction units of each
          static access, emission order (from [mem_summary]). *)
  loads : Gat_analysis.Coalescing.access array array;
      (** [loads.(block)]: the block's load accesses, emission order —
          the input of {!t.mem_load_latency}. *)
}
(** The geometry-free part: a function of the physical program, its
    coalescing summary and the device. *)

type t = {
  shape : shape;
  residency : Gat_core.Occupancy.result;
      (** Resident blocks/warps per SM under the L1-preference
          shared-memory carveout (size-independent). *)
  mem_load_latency : float array array;
      (** [mem_load_latency.(block)]: pre-resolved effective latency of
          each load access, emission order. *)
}

val shape :
  gpu:Gat_arch.Gpu.t ->
  mem_summary:(string * Gat_analysis.Coalescing.access list) list ->
  Gat_isa.Program.t ->
  shape
(** Build the geometry-free part for a compiled (physical-register)
    program; [mem_summary] is the static coalescing analysis keyed by
    block label. *)

val instantiate :
  shape ->
  gpu:Gat_arch.Gpu.t ->
  params:Params.t ->
  regs_per_thread:int ->
  smem_per_block:int ->
  t
(** Complete a shape for one variant; [regs_per_thread] comes from the
    compile log.  Shares [shape]'s arrays. *)

val residency :
  Gat_arch.Gpu.t ->
  Params.t ->
  regs_per_thread:int ->
  smem_per_block:int ->
  Gat_core.Occupancy.result
(** The occupancy computation used for {!t.residency}, exposed for
    callers that need it before a table exists. *)
