(** Scalar data types of the kernel IR. *)

type t = I32 | F32 | F64

val size_bytes : t -> int
(** Storage size: 4, 4 and 8 bytes respectively. *)

val is_float : t -> bool
val to_string : t -> string
