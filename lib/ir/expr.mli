(** Expressions of the kernel IR.

    Kernels are written against logical problem dimensions: [Size]
    denotes the problem size N, loop indices are [Var]s, and array
    accesses are multi-dimensional with row-major layout.  The compiler
    later introduces thread/block builtins during lowering; in source
    kernels they never appear. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type unop =
  | Neg
  | Sqrt
  | Recip  (** Reciprocal, [1/x]. *)
  | Exp
  | Log
  | Sin
  | Cos
  | Abs

type t =
  | Int of int  (** Integer literal. *)
  | Float of float  (** Floating literal (type fixed by context). *)
  | Size  (** The problem size N. *)
  | Var of string  (** Scalar variable or loop index. *)
  | Read of string * t list  (** [Read (a, idxs)]: load [a\[i\]\[j\]…]. *)
  | Bin of binop * t * t
  | Cmp of cmpop * t * t
  | Un of unop * t
  | Select of t * t * t  (** [Select (c, a, b)]: [c ? a : b]. *)

val binop_name : binop -> string
val cmpop_name : cmpop -> string
val unop_name : unop -> string

val free_vars : t -> string list
(** Distinct [Var] names, in first-occurrence order. *)

val arrays_read : t -> string list
(** Distinct array names read, in first-occurrence order. *)

val map_vars : (string -> t) -> t -> t
(** Substitute every [Var v] by [f v] (indices inside [Read] included). *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
(** Infix [Bin] constructors for kernel definitions. *)

val int : int -> t
val float : float -> t
val var : string -> t
val read : string -> t list -> t

val to_string : t -> string
(** Source-like rendering.  A [Float] prints with the fewest
    significant digits (at least six, as [%g]) that read back as the
    same float, so distinct constants never print alike. *)

val pp : Format.formatter -> t -> unit
