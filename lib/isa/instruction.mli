(** A single (optionally predicated) instruction. *)

type predicate = { negated : bool; reg : Register.t }
(** Guard predicate: the instruction executes in lanes where the
    predicate register (possibly negated) is true. *)

type cmp = EQ | NE | LT | LE | GT | GE
(** Comparison modifier carried by set-predicate instructions
    ([ISETP.GE], [FSETP.LT], ...). *)

type t = {
  op : Opcode.t;
  cmp : cmp option;  (** Comparison kind on [ISETP]/[FSETP]/[PSETP]. *)
  dst : Register.t option;  (** Destination register, if any. *)
  srcs : Operand.t list;  (** Source operands, in encoding order. *)
  pred : predicate option;  (** Optional guard, printed as [@P0]/[@!P0]. *)
}

val make :
  ?pred:predicate -> ?cmp:cmp -> ?dst:Register.t -> Opcode.t ->
  Operand.t list -> t

val cmp_name : cmp -> string
(** ["EQ"], ["GE"], ... as printed in the mnemonic suffix. *)

val cmp_of_name : string -> cmp option

val defs : t -> Register.t list
(** Registers written: the destination plus predicate destinations. *)

val uses : t -> Register.t list
(** Registers read: sources, address bases and the guard predicate. *)

val register_operands : t -> int
(** Total register operand slots touched (defs + uses); this is the
    per-instruction contribution to the paper's O{_reg} metric. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the instruction's assembly line (no newline), e.g.
    ["@!P0 ISETP.GE P1, R2, 8"] — the one printer of the text that
    {!of_string} parses; {!to_string} and {!Fingerprint} both use it. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val of_string : string -> t option
(** Parse one instruction line as printed by {!to_string}. *)

val pp : Format.formatter -> t -> unit
