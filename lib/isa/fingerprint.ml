(* Weight-free structural digests of lowered code.

   Lowering bakes the launch geometry (TC, BC) only into the per-block
   execution weights and active fractions; the instruction streams of
   a lowered kernel are identical across every (TC, BC) point of a
   sweep once the code-shaping parameters are fixed.  These digests
   deliberately exclude the weights, so two variants that differ only
   in launch geometry hash to the same key — the property every
   backend cache (in-memory and on-disk) keys its sharing on.

   Everything that shapes a backend stage's output IS included: the
   instruction text (exact, via [Instruction.add_to_buffer], which
   round-trips bit-exactly including [%h] float immediates), block
   labels and terminators (branch structure), and the program's
   register/shared-memory footprint.  A one-instruction edit anywhere
   moves the digest; a weight change never does. *)

let add_instruction buf ins =
  Instruction.add_to_buffer buf ins;
  Buffer.add_char buf '\n'

let add_body buf body = List.iter (add_instruction buf) body

(* Terminators rendered with their targets — [terminator_instruction]
   would drop the labels, making straight-line and looping code with
   identical bodies collide. *)
let add_terminator buf (term : Basic_block.terminator) =
  (match term with
  | Basic_block.Jump l ->
      Buffer.add_string buf "jump ";
      Buffer.add_string buf l
  | Basic_block.Cond_branch { pred; if_true; if_false } ->
      Buffer.add_string buf "cbr ";
      if pred.Instruction.negated then Buffer.add_char buf '!';
      Register.add_to_buffer buf pred.Instruction.reg;
      Buffer.add_char buf ' ';
      Buffer.add_string buf if_true;
      Buffer.add_char buf ' ';
      Buffer.add_string buf if_false
  | Basic_block.Exit -> Buffer.add_string buf "exit");
  Buffer.add_char buf '\n'

let add_block buf (b : Basic_block.t) =
  Buffer.add_string buf "block ";
  Buffer.add_string buf b.Basic_block.label;
  Buffer.add_char buf '\n';
  add_body buf b.Basic_block.body;
  add_terminator buf b.Basic_block.term

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let body (instrs : Instruction.t list) =
  let buf = Buffer.create 512 in
  add_body buf instrs;
  digest buf

let block (b : Basic_block.t) =
  let buf = Buffer.create 512 in
  add_block buf b;
  digest buf

let program (p : Program.t) =
  let buf = Buffer.create 4096 in
  (* Name and target distinguish kernels whose code happens to
     coincide; the register/smem footprint feeds occupancy and the
     spill model, so it is input, not noise. *)
  Printf.bprintf buf "program %s %s %d %d %d\n" p.Program.name
    (Gat_arch.Compute_capability.to_string p.Program.target)
    p.Program.regs_per_thread p.Program.smem_static p.Program.smem_dynamic;
  List.iter (add_block buf) p.Program.blocks;
  digest buf

(* Exact weight-free equality over the same content [program] digests,
   so [same_code a b] implies [program a = program b]: a cache can test
   it on a hit instead of hashing. *)
let same_terminator (a : Basic_block.terminator) (b : Basic_block.terminator) =
  match (a, b) with
  | Basic_block.Jump l, Basic_block.Jump l' -> String.equal l l'
  | Basic_block.Cond_branch c, Basic_block.Cond_branch c' ->
      Bool.equal c.pred.Instruction.negated c'.pred.Instruction.negated
      && Register.equal c.pred.Instruction.reg c'.pred.Instruction.reg
      && String.equal c.if_true c'.if_true
      && String.equal c.if_false c'.if_false
  | Basic_block.Exit, Basic_block.Exit -> true
  | (Basic_block.Jump _ | Basic_block.Cond_branch _ | Basic_block.Exit), _ ->
      false

let same_block (a : Basic_block.t) (b : Basic_block.t) =
  String.equal a.Basic_block.label b.Basic_block.label
  && List.equal Instruction.equal a.Basic_block.body b.Basic_block.body
  && same_terminator a.Basic_block.term b.Basic_block.term

let same_code (a : Program.t) (b : Program.t) =
  String.equal a.Program.name b.Program.name
  && Gat_arch.Compute_capability.compare a.Program.target b.Program.target = 0
  && Int.equal a.Program.regs_per_thread b.Program.regs_per_thread
  && Int.equal a.Program.smem_static b.Program.smem_static
  && Int.equal a.Program.smem_dynamic b.Program.smem_dynamic
  && List.equal same_block a.Program.blocks b.Program.blocks
