(** Registers of the virtual ISA.

    General-purpose registers hold 32-bit values (a 64-bit value
    occupies an aligned pair, as on real NVIDIA hardware); predicate
    registers hold booleans.  Before register allocation, ids are
    virtual and unbounded; after allocation they index the physical
    per-thread register file. *)

type cls = Gpr | Pred

type t = { cls : cls; id : int }

val gpr : int -> t
(** General-purpose register [Rid]. *)

val pred : int -> t
(** Predicate register [Pid]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val add_to_buffer : Buffer.t -> t -> unit
(** Append ["R3"] or ["P1"]. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val of_string : string -> t option
(** Inverse of {!to_string}. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
