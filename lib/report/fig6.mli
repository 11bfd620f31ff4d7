(** Paper Fig. 6: improved search time over exhaustive autotuning.

    The pruned searches evaluate a fraction of the 5,120-variant space;
    the improvement is the fraction of evaluations (equivalently,
    empirical trials) avoided.  The quality column checks how close the
    pruned search's best variant is to the true optimum found by the
    exhaustive baseline.  Both bests are read off the one exhaustive
    sweep ({!Context.pruned}): a pruned space's points are a subset of
    it, so no variant is compiled or simulated a second time. *)

type row = {
  kernel : string;
  family : string;
  static_improvement : float;  (** Fraction of space avoided, static. *)
  rule_improvement : float;  (** Fraction avoided, static + rules. *)
  static_quality : float;
      (** Exhaustive best / best time over the static space (1.0 = the
          optimum survived pruning; never above 1). *)
  rule_quality : float;
}

val rows : unit -> row list
val render : unit -> string
