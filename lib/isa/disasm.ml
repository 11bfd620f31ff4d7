let instruction = Instruction.to_string

let terminator (t : Basic_block.terminator) =
  match t with
  | Basic_block.Jump l -> Printf.sprintf "BRA %s" l
  | Basic_block.Cond_branch { pred = { negated; reg }; if_true; if_false } ->
      Printf.sprintf "@%s%s BRA %s else %s"
        (if negated then "!" else "")
        (Register.to_string reg) if_true if_false
  | Basic_block.Exit -> "EXIT"

let block (b : Basic_block.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: ; weight=%s active=%h\n" b.Basic_block.label
       (Weight.to_string b.Basic_block.weight)
       b.Basic_block.active_frac);
  List.iter
    (fun ins ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (instruction ins);
      Buffer.add_char buf '\n')
    b.Basic_block.body;
  Buffer.add_string buf "  ";
  Buffer.add_string buf (terminator b.Basic_block.term);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let program (p : Program.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf ".kernel %s\n" p.Program.name);
  Buffer.add_string buf
    (Printf.sprintf ".target %s\n"
       (Gat_arch.Compute_capability.to_string p.Program.target));
  Buffer.add_string buf (Printf.sprintf ".regs %d\n" p.Program.regs_per_thread);
  Buffer.add_string buf (Printf.sprintf ".smem.static %d\n" p.Program.smem_static);
  Buffer.add_string buf
    (Printf.sprintf ".smem.dynamic %d\n" p.Program.smem_dynamic);
  Buffer.add_char buf '\n';
  List.iter (fun b -> Buffer.add_string buf (block b)) p.Program.blocks;
  Buffer.contents buf
