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
  List.iter (add_instruction buf) b.Basic_block.body;
  add_terminator buf b.Basic_block.term

let program (p : Program.t) =
  let buf = Buffer.create 4096 in
  (* Name and target distinguish kernels whose code happens to
     coincide; the register/smem footprint feeds occupancy and the
     spill model, so it is input, not noise. *)
  Printf.bprintf buf "program %s %s %d %d %d\n" p.Program.name
    (Gat_arch.Compute_capability.to_string p.Program.target)
    p.Program.regs_per_thread p.Program.smem_static p.Program.smem_dynamic;
  List.iter (add_block buf) p.Program.blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))
