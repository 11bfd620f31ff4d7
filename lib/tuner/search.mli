(** Common scaffolding for search strategies over the discrete tuning
    space.

    Orio's search modules (exhaustive, random, simulated annealing,
    genetic, Nelder–Mead) are reimplemented here over the same
    index-space interface; the static analyzer integrates as a *space
    pruner* composed with any of them (Section III-C). *)

type objective = Gat_compiler.Params.t -> float option
(** Measured time of a parameter point, [None] for invalid variants. *)

type outcome = {
  best_params : Gat_compiler.Params.t option;
      (** [None] when every evaluated point was invalid. *)
  best_time : float;  (** Infinity when no point was valid. *)
  evaluations : int;  (** Objective calls made. *)
}

type axes
(** The space as an array of discrete axes (index-space view). *)

val axes_of_space : Space.t -> axes
val dims : axes -> int
val axis_length : axes -> int -> int

val params_of_point : axes -> int array -> Gat_compiler.Params.t
(** Indices are clamped into range, so strategies may generate
    out-of-bounds coordinates freely. *)

val random_point : Gat_util.Rng.t -> axes -> int array

val counting_objective : objective -> objective * (unit -> int)
(** Wrap an objective with an evaluation counter. *)

val memoized_objective : objective -> objective
(** Cache results by parameter point in a {!Gat_util.Memo}: re-visits
    don't re-measure, and concurrent first visits from pool workers
    measure once. *)
