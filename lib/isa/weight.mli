(** Symbolic per-thread execution counts.

    The compiler knows how many times each basic block executes per
    thread as a function of the problem size [N] (loop trip counts after
    strip-mining and unrolling).  A weight is the polynomial
    [c0 + c1*N + c2*N^2 + c3*N^3], which covers every loop structure the
    kernel IR can express (up to the 3-D stencil's flattened N^3 point
    loop). *)

type t = { c0 : float; c1 : float; c2 : float; c3 : float }

val zero : t
val one : t
(** Executes exactly once per thread. *)

val const : float -> t
val linear : float -> t
(** [linear c] is [c * N] executions. *)

val quadratic : float -> t
val cubic : float -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul : t -> t -> t
(** Polynomial product, truncated at degree 3 (raises if the true degree
    would exceed 3, which the compiler never produces). *)

val eval : t -> n:int -> float
(** Executions per thread for problem size [n]. *)

val degree : t -> int
(** Highest non-zero power (0 for constants and zero). *)

val to_string : t -> string
val of_string : string -> t option
val equal : t -> t -> bool
