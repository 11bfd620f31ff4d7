(** Instruction operands: registers, immediates, special (built-in)
    registers and memory references. *)

type special =
  | Tid_x  (** [%tid.x], thread index within the block. *)
  | Ntid_x  (** [%ntid.x], threads per block. *)
  | Ctaid_x  (** [%ctaid.x], block index within the grid. *)
  | Nctaid_x  (** [%nctaid.x], blocks in the grid. *)
  | Laneid  (** [%laneid], lane within the warp. *)

type space = Global | Shared | Const | Local | Param
(** Memory spaces addressable by memory operands. *)

type t =
  | Reg of Register.t
  | Imm of int  (** Integer immediate. *)
  | FImm of float  (** Floating-point immediate. *)
  | Special of special
  | Addr of addr  (** Memory reference (only on memory opcodes). *)

and addr = { space : space; base : Register.t; offset : int }

val special_to_string : special -> string
val special_of_string : string -> special option
val space_to_string : space -> string
val space_of_string : string -> space option

val reg : Register.t -> t
val imm : int -> t
val fimm : float -> t
val addr : space -> Register.t -> int -> t

val registers : t -> Register.t list
(** Registers mentioned by the operand (address bases included). *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the operand's assembly text: [R3], [42], a [%h] float
    literal, [%tid.x], [[global:R2+8]]. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val of_string : string -> t option
val pp : Format.formatter -> t -> unit
