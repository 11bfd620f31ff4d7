(** PTX rendering of programs.

    The paper's analyzer works on "the PTX code generated by the NVIDIA
    nvcc compiler" — the virtual-register form before `ptxas` assigns
    the physical file.  {!Gat_compiler.Driver.compiled} keeps that form
    (field [ptx]); this module prints it in PTX-style syntax so the
    pipeline mirrors the paper's two artifacts: a [.ptx] listing and a
    `nvdisasm`-style listing ({!Disasm}).

    One-way: PTX is a presentation format here; the round-trippable form
    is {!Disasm}/{!Parser}. *)

val instruction : Instruction.t -> string
(** One instruction in PTX syntax, e.g. ["fma.rn.f32 %r7, %r3, %r4, %r5;"]. *)

val program : Program.t -> string
(** Full [.visible .entry] listing with register declarations, the
    target directive and labelled blocks. *)
