(** Kernel definitions: the unit Orio autotunes.

    A kernel computes over global arrays whose every dimension has
    extent N (the problem size).  Exactly one top-level [Parallel] loop
    is required — the dimension the compiler maps onto threads, as in
    Orio's CUDA loop transformation. *)

type array_decl = {
  array_name : string;
  elem : Dtype.t;
  dims : int;  (** Number of dimensions, each of extent N. *)
}

type t = {
  name : string;
  description : string;  (** One-line summary (Table IV's text). *)
  arrays : array_decl list;  (** Global array parameters. *)
  body : Stmt.t list;
}

val make :
  name:string -> description:string -> arrays:array_decl list ->
  Stmt.t list -> t
(** Validates the kernel: exactly one [Parallel] loop, located at top
    level; every referenced array declared; no duplicate declarations.
    Raises [Invalid_argument] with a diagnostic. *)

val array_decl : ?elem:Dtype.t -> string -> int -> array_decl
(** [array_decl name dims] with 1 <= dims <= 3, element type defaulting
    to [F32]. *)

val parallel_loop : t -> Stmt.loop
(** The top-level parallel loop. *)

val find_array : t -> string -> array_decl
(** Raises [Not_found]. *)

val to_string : t -> string
