(** Textual form of virtual-ISA programs — our stand-in for `nvdisasm`.

    The format round-trips exactly through {!Parser.program}: header
    directives carry the ptxas-log resource metadata, each block is a
    label line with its modelling annotations, and terminators print as
    [BRA]/[EXIT] lines. *)

val instruction : Instruction.t -> string
(** One instruction, no indentation or newline. *)

val block : Basic_block.t -> string
(** Label line, annotated body and terminator. *)

val program : Program.t -> string
(** Full listing with header directives. *)
