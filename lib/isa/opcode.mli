(** Opcodes of the virtual ISA, modelled on NVIDIA SASS mnemonics.

    Each opcode maps to exactly one Table II throughput category (see
    {!Gat_arch.Throughput.category}), which is how the static analyzer
    weights it.  Control-flow opcodes ([BRA], [EXIT], [BAR], …) appear
    only in block terminators or as explicit instructions emitted by the
    compiler for synchronization. *)

type t =
  (* 32-bit floating point *)
  | FADD
  | FMUL
  | FFMA
  (* 64-bit floating point *)
  | DADD
  | DMUL
  | DFMA
  (* compare / min / max *)
  | FSETP
  | ISETP
  | FMNMX
  | IMNMX
  (* shift / extract / shuffle *)
  | SHL
  | SHR
  | SHF
  | VABSDIFF
  (* conversions *)
  | F2D
  | D2F
  | I2D
  | D2I
  | F2I
  | I2F
  | F2F
  (* special function unit *)
  | MUFU_RCP
  | MUFU_SQRT
  | MUFU_SIN
  | MUFU_COS
  | MUFU_LG2
  | MUFU_EX2
  (* 32-bit integer *)
  | IADD
  | IMUL
  | IMAD
  | LOP_AND
  | LOP_OR
  | LOP_XOR
  (* memory *)
  | LDG
  | STG
  | LDS
  | STS
  | LDC
  | LDL
  | STL
  | TEX
  (* predicate / control *)
  | PSETP
  | BRA
  | EXIT
  | BAR
  | SSY
  (* moves *)
  | MOV
  | SEL

val category : t -> Gat_arch.Throughput.category
(** Table II category of the opcode. *)

val mnemonic : t -> string
(** Textual mnemonic as printed by the disassembler, e.g. ["MUFU.RCP"]. *)

val of_mnemonic : string -> t option
(** Inverse of {!mnemonic}. *)

val all : t list
(** Every opcode. *)

val is_memory : t -> bool
(** True for load/store/texture opcodes. *)

val is_load : t -> bool
(** True for opcodes that read memory. *)

val is_global_memory : t -> bool
(** True for [LDG]/[STG]/[TEX] (off-chip traffic). *)

val is_shared_memory : t -> bool
(** True for [LDS]/[STS]. *)

val is_barrier : t -> bool
(** True for [BAR]. *)

val latency : Gat_arch.Gpu.t -> t -> float
(** Result latency in cycles on the given device: ALU latencies are a
    small per-family constant, SFU slightly higher, global loads use the
    device's memory latency, shared loads a fixed short latency.  Used
    only by the simulator substrate, not by the static analyzer. *)
