let reg (r : Register.t) =
  match r.Register.cls with
  | Register.Gpr -> Printf.sprintf "%%r%d" r.Register.id
  | Register.Pred -> Printf.sprintf "%%p%d" r.Register.id

let operand (o : Operand.t) =
  match o with
  | Operand.Reg r -> reg r
  | Operand.Imm i -> string_of_int i
  | Operand.FImm f -> Printf.sprintf "0f%08lX" (Int32.bits_of_float f)
  | Operand.Special s -> Operand.special_to_string s
  | Operand.Addr { base; offset; _ } ->
      if offset = 0 then Printf.sprintf "[%s]" (reg base)
      else Printf.sprintf "[%s+%d]" (reg base) offset

let space_suffix (o : Operand.t) =
  match o with
  | Operand.Addr { space; _ } -> (
      match space with
      | Operand.Global -> "global"
      | Operand.Shared -> "shared"
      | Operand.Const -> "const"
      | Operand.Local -> "local"
      | Operand.Param -> "param")
  | _ -> "global"

let cmp_suffix = function
  | Instruction.EQ -> "eq"
  | Instruction.NE -> "ne"
  | Instruction.LT -> "lt"
  | Instruction.LE -> "le"
  | Instruction.GT -> "gt"
  | Instruction.GE -> "ge"

(* PTX mnemonic for an opcode, given the instruction for modifiers. *)
let mnemonic (ins : Instruction.t) =
  let cmp () =
    match ins.Instruction.cmp with
    | Some c -> cmp_suffix c
    | None -> "ne"
  in
  let addr_space () =
    match ins.Instruction.srcs with a :: _ -> space_suffix a | [] -> "global"
  in
  match ins.Instruction.op with
  | Opcode.FADD -> "add.f32"
  | Opcode.FMUL -> "mul.f32"
  | Opcode.FFMA -> "fma.rn.f32"
  | Opcode.DADD -> "add.f64"
  | Opcode.DMUL -> "mul.f64"
  | Opcode.DFMA -> "fma.rn.f64"
  | Opcode.FSETP -> Printf.sprintf "setp.%s.f32" (cmp ())
  | Opcode.ISETP -> Printf.sprintf "setp.%s.s32" (cmp ())
  | Opcode.PSETP -> Printf.sprintf "setp.%s.pred" (cmp ())
  | Opcode.FMNMX ->
      (* min/max selected by the third operand, as the SASS form. *)
      let is_max =
        match List.nth_opt ins.Instruction.srcs 2 with
        | Some (Operand.Imm 1) -> true
        | _ -> false
      in
      if is_max then "max.f32" else "min.f32"
  | Opcode.IMNMX -> (
      match List.nth_opt ins.Instruction.srcs 2 with
      | Some (Operand.Imm 1) -> "max.s32"
      | _ -> "min.s32")
  | Opcode.SHL -> "shl.b32"
  | Opcode.SHR -> "shr.s32"
  | Opcode.SHF -> "shf.l.wrap.b32"
  | Opcode.VABSDIFF -> "vabsdiff.s32"
  | Opcode.F2D -> "cvt.f64.f32"
  | Opcode.D2F -> "cvt.rn.f32.f64"
  | Opcode.I2D -> "cvt.rn.f64.s32"
  | Opcode.D2I -> "cvt.rzi.s32.f64"
  | Opcode.F2I -> "cvt.rzi.s32.f32"
  | Opcode.I2F -> "cvt.rn.f32.s32"
  | Opcode.F2F -> "cvt.f32.f32"
  | Opcode.MUFU_RCP -> "rcp.approx.f32"
  | Opcode.MUFU_SQRT -> "sqrt.approx.f32"
  | Opcode.MUFU_SIN -> "sin.approx.f32"
  | Opcode.MUFU_COS -> "cos.approx.f32"
  | Opcode.MUFU_LG2 -> "lg2.approx.f32"
  | Opcode.MUFU_EX2 -> "ex2.approx.f32"
  | Opcode.IADD -> "add.s32"
  | Opcode.IMUL -> "mul.lo.s32"
  | Opcode.IMAD -> "mad.lo.s32"
  | Opcode.LOP_AND -> "and.b32"
  | Opcode.LOP_OR -> "or.b32"
  | Opcode.LOP_XOR -> "xor.b32"
  | Opcode.LDG | Opcode.LDS | Opcode.LDC | Opcode.LDL ->
      Printf.sprintf "ld.%s.f32" (addr_space ())
  | Opcode.STG | Opcode.STS | Opcode.STL ->
      Printf.sprintf "st.%s.f32" (addr_space ())
  | Opcode.TEX -> "tex.1d.v4.f32.s32"
  | Opcode.BAR -> "bar.sync"
  | Opcode.SSY -> "ssy"
  | Opcode.BRA -> "bra"
  | Opcode.EXIT -> "ret"
  | Opcode.MOV -> "mov.b32"
  | Opcode.SEL -> "selp.f32"

let instruction (ins : Instruction.t) =
  let guard =
    match ins.Instruction.pred with
    | Some { Instruction.negated; reg = r } ->
        Printf.sprintf "@%s%s " (if negated then "!" else "") (reg r)
    | None -> ""
  in
  let operands =
    (match ins.Instruction.dst with Some r -> [ reg r ] | None -> [])
    @ List.map operand ins.Instruction.srcs
  in
  Printf.sprintf "%s%s %s;" guard (mnemonic ins) (String.concat ", " operands)

let terminator (b : Basic_block.t) =
  match b.Basic_block.term with
  | Basic_block.Jump l -> [ Printf.sprintf "bra.uni %s;" l ]
  | Basic_block.Exit -> [ "ret;" ]
  | Basic_block.Cond_branch { pred = { negated; reg = r }; if_true; if_false } ->
      [
        Printf.sprintf "@%s%s bra %s;" (if negated then "!" else "") (reg r) if_true;
        Printf.sprintf "bra.uni %s;" if_false;
      ]

let target_directive (cc : Gat_arch.Compute_capability.t) =
  Printf.sprintf ".target %s"
    (Gat_arch.Compute_capability.to_string cc)

let program (p : Program.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf ".version 5.0\n";
  Buffer.add_string buf (target_directive p.Program.target);
  Buffer.add_string buf "\n.address_size 64\n\n";
  Buffer.add_string buf
    (Printf.sprintf ".visible .entry %s()\n{\n" p.Program.name);
  let max_gpr = Program.max_virtual_register p in
  Buffer.add_string buf (Printf.sprintf "  .reg .b32 %%r<%d>;\n" (max_gpr + 2));
  Buffer.add_string buf "  .reg .pred %p<8>;\n";
  if Program.smem_per_block p > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  .shared .align 4 .b8 _smem[%d];\n"
         (Program.smem_per_block p));
  Buffer.add_char buf '\n';
  List.iter
    (fun (b : Basic_block.t) ->
      Buffer.add_string buf (Printf.sprintf "%s:\n" b.Basic_block.label);
      List.iter
        (fun ins ->
          Buffer.add_string buf "  ";
          Buffer.add_string buf (instruction ins);
          Buffer.add_char buf '\n')
        b.Basic_block.body;
      List.iter
        (fun line ->
          Buffer.add_string buf "  ";
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        (terminator b))
    p.Program.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
