(** Statements of the kernel IR. *)

type loop_kind =
  | Sequential  (** Runs in-order inside one thread. *)
  | Parallel
      (** Orio-annotated: iterations are independent, so the compiler
          maps them over threads with a grid-stride loop. *)

type t =
  | Assign of string * Expr.t  (** Scalar assignment [v = e]. *)
  | Store of string * Expr.t list * Expr.t  (** [a\[i\]… = e]. *)
  | For of loop
  | If of Expr.t * t list * t list  (** Condition, then-, else-branch. *)
  | Sync  (** __syncthreads-style barrier. *)

and loop = {
  var : string;  (** Loop index, scoped to the body. *)
  lo : Expr.t;  (** Inclusive lower bound. *)
  hi : Expr.t;  (** Exclusive upper bound. *)
  step : int;  (** Positive constant stride (1 in source kernels;
                   larger after unrolling). *)
  kind : loop_kind;
  body : t list;
}

val for_ : ?kind:loop_kind -> ?step:int -> string -> Expr.t -> Expr.t -> t list -> t
(** [for_ v lo hi body] builds a loop (default [Sequential], step 1).
    Raises on non-positive steps. *)

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Apply a rewriter to every expression in the statement tree
    (loop bounds, conditions, indices and right-hand sides). *)

val arrays_written : t list -> string list
(** Distinct array names stored to, in first-occurrence order. *)

val arrays_read : t list -> string list
(** Distinct array names loaded from, in first-occurrence order. *)

val count_parallel_loops : t list -> int
(** Number of [Parallel] loops anywhere in the tree. *)

val to_string : ?indent:int -> t -> string
