open Gat_isa

type t = {
  divergent : int list;
  branches : int;
}

let special_is_lane_varying = function
  | Operand.Tid_x | Operand.Laneid -> true
  | Operand.Ntid_x | Operand.Ctaid_x | Operand.Nctaid_x -> false

let instruction_taints tainted (ins : Instruction.t) =
  let src_tainted =
    List.exists
      (fun operand ->
        match operand with
        | Operand.Special s -> special_is_lane_varying s
        | Operand.Reg r -> Register.Set.mem r tainted
        | Operand.Addr { base; _ } -> Register.Set.mem base tainted
        | Operand.Imm _ | Operand.FImm _ -> false)
      ins.Instruction.srcs
    ||
    match ins.Instruction.pred with
    | Some { reg; _ } -> Register.Set.mem reg tainted
    | None -> false
  in
  (* Loads from lane-varying addresses produce lane-varying data.  Taint
     is never killed: a register that may hold a lane-varying value on
     some path stays suspect (may-analysis). *)
  if src_tainted then
    match ins.Instruction.dst with
    | Some d -> Register.Set.add d tainted
    | None -> tainted
  else tainted

module Taint = Dataflow.Make (struct
  type t = Register.Set.t

  let bottom = Register.Set.empty
  let equal = Register.Set.equal
  let join = Register.Set.union
end)

let compute cfg =
  let solution =
    Taint.solve cfg ~transfer:(fun _ block facts ->
        List.fold_left instruction_taints facts
          (Dataflow.block_instructions block))
  in
  let divergent = ref [] and branches = ref 0 in
  List.iteri
    (fun i (b : Basic_block.t) ->
      match b.Basic_block.term with
      | Basic_block.Cond_branch { pred = { reg; _ }; _ } ->
          incr branches;
          if Register.Set.mem reg solution.Taint.after.(i) then
            divergent := i :: !divergent
      | Basic_block.Jump _ | Basic_block.Exit -> ())
    cfg.Cfg.program.Program.blocks;
  { divergent = List.rev !divergent; branches = !branches }

let divergent_branches t = t.divergent
let branch_count t = t.branches

let divergent_fraction t =
  if t.branches = 0 then 0.0
  else float_of_int (List.length t.divergent) /. float_of_int t.branches
