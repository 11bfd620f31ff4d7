(** The tuning search space: from an Orio spec to concrete parameter
    points. *)

type t = {
  tc : int list;  (** Thread counts. *)
  bc : int list;  (** Block counts. *)
  uif : int list;  (** Unroll factors. *)
  pl : int list;  (** L1 preferences (KB). *)
  sc : int list;  (** Staging depths. *)
  cflags : bool list;  (** fast-math off/on. *)
}

val of_spec : Gat_ir.Tuning_spec.t -> t
(** Read TC/BC/UIF/PL/SC/CFLAGS from a parsed spec; missing parameters
    get singleton defaults (UIF=1, PL=16, SC=1, CFLAGS=""). *)

val paper : t
(** The paper's experiment space: Fig. 3 with SC pinned to 1, giving the
    5,120 variants the evaluation reports. *)

val cardinality : t -> int

val points : t -> Gat_compiler.Params.t list
(** Cartesian product in deterministic order (TC outermost). *)

val mem : t -> Gat_compiler.Params.t -> bool
(** [mem t p] iff [p] is one of [points t]: every coordinate lies on
    its axis.  No list is built. *)

val with_tc : t -> int list -> t
(** Replace the thread-count axis — how the static analyzer's
    suggestions prune the space. *)

val restrict_tc : t -> keep:(int -> bool) -> t
(** Keep only thread counts satisfying the predicate. *)

val to_string : t -> string
