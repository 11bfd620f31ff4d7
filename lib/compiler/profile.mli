(** Execution profile of a compiled variant.

    The lowering pass knows the exact loop structure it emitted — which
    block is the grid-stride header, each sequential loop's bounds and
    unroll split, every conditional's condition — so it can compute, for
    any problem size [n], the exact number of warp-level issues of every
    basic block and the average fraction of active lanes.  The simulator
    uses these counts as the ground-truth dynamic behaviour; the static
    analyzer never sees them (it only has the block weight polynomials,
    which are smooth approximations).

    Per-access memory-transaction counts live in
    [Gat_analysis.Coalescing] (a static analysis of the emitted code)
    and reach the simulator through [Driver.compiled.mem_summary]. *)

type agg = {
  execs : float;  (** Warp-level issues of the block across the grid. *)
  lanes : float;  (** Average fraction of the 32 lanes active, (0,1]. *)
}

type t = {
  total_warps : int;  (** Warps launched: BC * ceil(TC/32). *)
  warps_per_block : int;
  work_items : int -> int;
      (** Parallel-loop iterations at problem size [n] — the number of
          threads that do real work. *)
  block_counts : int -> (string * agg) list;
      (** Exact per-block execution aggregates at problem size [n]
          (memoized). *)
}

val find_counts : t -> n:int -> string -> agg
(** Aggregate of one block ({!agg} of zero for labels never recorded —
    does not happen for blocks emitted by the lowering). *)

(** Evaluation of pure (array-free) IR expressions — used for the
    Monte-Carlo branch-probability estimation and the stride analysis.
    Exposed for tests. *)
val eval_pure :
  bindings:(string * float) list -> n:int -> Gat_ir.Expr.t -> float option

val monte_carlo_prob :
  cond:Gat_ir.Expr.t ->
  var:string ->
  lo:Gat_ir.Expr.t ->
  hi:Gat_ir.Expr.t ->
  n:int ->
  float
(** Probability that [cond] holds for [var] uniform over [\[lo, hi)] at
    problem size [n], estimated with a fixed-seed 512-sample Monte
    Carlo; 0.5 when the condition is not purely index-based. *)
