(** The paper's contribution integrated into the autotuner: model-based
    pruning of the search space (Section III-C).

    The static analyzer compiles the kernel once (no execution),
    computes its occupancy-optimal thread counts (Table VII) and its
    computational intensity, and restricts the TC axis accordingly:
    - static pruning keeps only the suggested thread counts;
    - rule-based pruning additionally keeps the lower or upper half
      depending on intensity (threshold 4.0).

    The pruned space can then be explored with any search strategy;
    the paper uses exhaustive search over the pruned space to validate
    that the optimum survives pruning. *)

type pruning = {
  suggestion : Gat_core.Suggest.t;  (** The Table VII row used. *)
  intensity : float;  (** Static computational intensity. *)
  mem_transaction_factor : float;
      (** Average transactions-per-warp over global accesses from the
          static coalescing analysis (>= 1). *)
  effective_intensity : float;
      (** Intensity against transaction-weighted memory ops — what the
          band rule actually consumes. *)
  static_space : Space.t;  (** TC restricted to suggested counts. *)
  rule_space : Space.t;  (** Further halved by the intensity rule. *)
}

val transaction_factor : Gat_compiler.Driver.compiled -> float
(** Average transactions-per-warp over the compile's global accesses,
    from the static coalescing analysis; 1.0 for memory-free kernels and
    never below 1. *)

val suggestion : Gat_arch.Gpu.t -> Gat_compiler.Driver.compiled -> Gat_core.Suggest.t
(** The Table VII row for a compile: {!Gat_core.Suggest.suggest} at
    its registers per thread and its static plus dynamic shared memory
    per block. *)

val prune :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Space.t -> (pruning, string) result
(** Compile at reference parameters, analyze, restrict.  Suggested
    thread counts are intersected with the space's own TC axis (the
    suggestion's 64-multiples meet the axis's 32-multiples).  [Error]
    if even the reference configuration fails to compile. *)

val reduction : original:Space.t -> pruned:Space.t -> float
(** Fractional search-space reduction, e.g. 0.875 when 32 thread counts
    shrink to 4 (the Fig. 6 quantity). *)

val run :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> rule_based:bool ->
  Search.objective -> Space.t -> Search.outcome
(** Prune, then search the reduced space exhaustively. *)
