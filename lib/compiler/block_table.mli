(** Flat per-block static summary of a compiled variant.

    Everything the simulator's hot loop needs that does not depend on
    the problem size is derived from linked structures exactly once per
    compile — per-block issue cycles, global-load and barrier counts,
    per-category static instruction mixes, register-operand sequences,
    pre-resolved memory transaction/latency factors, and the resident
    occupancy — and stored in arrays indexed by block layout order.
    {!Gat_sim.Engine.run} then reduces each simulation to array loops
    over this table, with no list traversal, no [assoc] scans and no
    per-instruction allocation.

    The table is built inside {!Driver.compile} on every compile (a
    build is cheaper than a persisted copy's key and read), so the
    one-compile-per-point sharing of the sweep engine amortizes it
    across every input size a variant is simulated at.

    Layout invariant: index [i] corresponds to the [i]-th block of
    [program.blocks]; [labels], [index] and every per-block array agree
    on that numbering.  The floating-point contents replicate the exact
    folds of the legacy per-run computation (terminator-first issue
    cost, body-then-terminator operand order), so an engine that
    replays them is bit-identical to the list-based path — asserted by
    the equivalence suite in [test_sim]. *)

type t = {
  n_blocks : int;
  n_categories : int;  (** [List.length Throughput.all_categories]. *)
  labels : string array;  (** Block labels in layout order. *)
  index : (string, int) Hashtbl.t;  (** Label -> block index. *)
  residency : Gat_core.Occupancy.result;
      (** Resident blocks/warps per SM under the L1-preference
          shared-memory carveout (size-independent). *)
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
  mem_load_latency : float array array;
      (** [mem_load_latency.(block)]: pre-resolved effective latency of
          each load access, emission order. *)
}

val build :
  gpu:Gat_arch.Gpu.t ->
  params:Params.t ->
  regs_per_thread:int ->
  mem_summary:(string * Gat_analysis.Coalescing.access list) list ->
  Gat_isa.Program.t ->
  t
(** Build the table for a compiled program.  [regs_per_thread] comes
    from the compile log; [mem_summary] is the static coalescing
    analysis keyed by block label. *)

val residency :
  Gat_arch.Gpu.t ->
  Params.t ->
  regs_per_thread:int ->
  smem_per_block:int ->
  Gat_core.Occupancy.result
(** The occupancy computation used for {!t.residency}, exposed for
    callers that need it before a table exists. *)
