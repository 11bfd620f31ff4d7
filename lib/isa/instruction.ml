type predicate = { negated : bool; reg : Register.t }
type cmp = EQ | NE | LT | LE | GT | GE

type t = {
  op : Opcode.t;
  cmp : cmp option;
  dst : Register.t option;
  srcs : Operand.t list;
  pred : predicate option;
}

let make ?pred ?cmp ?dst op srcs = { op; cmp; dst; srcs; pred }

let cmp_name = function
  | EQ -> "EQ"
  | NE -> "NE"
  | LT -> "LT"
  | LE -> "LE"
  | GT -> "GT"
  | GE -> "GE"

let cmp_of_name = function
  | "EQ" -> Some EQ
  | "NE" -> Some NE
  | "LT" -> Some LT
  | "LE" -> Some LE
  | "GT" -> Some GT
  | "GE" -> Some GE
  | _ -> None

let defs t = match t.dst with Some r -> [ r ] | None -> []

let uses t =
  let srcs = List.concat_map Operand.registers t.srcs in
  match t.pred with Some { reg; _ } -> reg :: srcs | None -> srcs

let register_operands t = List.length (defs t) + List.length (uses t)

let add_to_buffer buf t =
  (match t.pred with
  | Some { negated; reg } ->
      Buffer.add_char buf '@';
      if negated then Buffer.add_char buf '!';
      Register.add_to_buffer buf reg;
      Buffer.add_char buf ' '
  | None -> ());
  Buffer.add_string buf (Opcode.mnemonic t.op);
  (match t.cmp with
  | Some c ->
      Buffer.add_char buf '.';
      Buffer.add_string buf (cmp_name c)
  | None -> ());
  (* Destination first, then sources: " R1, R2, 8". *)
  Option.iter
    (fun r ->
      Buffer.add_char buf ' ';
      Register.add_to_buffer buf r)
    t.dst;
  List.iteri
    (fun i o ->
      Buffer.add_string buf (if i = 0 && Option.is_none t.dst then " " else ", ");
      Operand.add_to_buffer buf o)
    t.srcs

let to_string t =
  let buf = Buffer.create 48 in
  add_to_buffer buf t;
  Buffer.contents buf

let split_operands s =
  (* Commas never occur inside operand syntax, so a flat split is safe. *)
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* "ISETP.GE" -> (ISETP, Some GE); "MUFU.RCP" -> (MUFU_RCP, None). *)
let parse_mnemonic mnemonic =
  match Opcode.of_mnemonic mnemonic with
  | Some op -> Some (op, None)
  | None -> (
      match String.rindex_opt mnemonic '.' with
      | None -> None
      | Some dot -> (
          let base = String.sub mnemonic 0 dot in
          let suffix =
            String.sub mnemonic (dot + 1) (String.length mnemonic - dot - 1)
          in
          match (Opcode.of_mnemonic base, cmp_of_name suffix) with
          | Some op, (Some _ as cmp) -> Some (op, cmp)
          | _ -> None))

let of_string line =
  let line = String.trim line in
  if line = "" then None
  else begin
    let pred, rest =
      if line.[0] = '@' then begin
        match String.index_opt line ' ' with
        | None -> (None, line)
        | Some sp -> (
            let tag = String.sub line 1 (sp - 1) in
            let negated = String.length tag > 0 && tag.[0] = '!' in
            let reg_str = if negated then String.sub tag 1 (String.length tag - 1) else tag in
            match Register.of_string reg_str with
            | Some reg ->
                ( Some { negated; reg },
                  String.trim (String.sub line sp (String.length line - sp)) )
            | None -> (None, line))
      end
      else (None, line)
    in
    let mnemonic, operand_str =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some sp ->
          ( String.sub rest 0 sp,
            String.trim (String.sub rest sp (String.length rest - sp)) )
    in
    match parse_mnemonic mnemonic with
    | None -> None
    | Some (op, cmp) -> (
        let operands = split_operands operand_str in
        let parsed = List.map Operand.of_string operands in
        if List.exists (fun o -> o = None) parsed then None
        else
          let operands = List.filter_map Fun.id parsed in
          (* First operand is the destination register when the opcode
             produces a value (everything except stores/control). *)
          let has_dst =
            match op with
            | Opcode.STG | Opcode.STS | Opcode.STL | Opcode.BRA | Opcode.EXIT
            | Opcode.BAR | Opcode.SSY ->
                false
            | _ -> true
          in
          if has_dst then
            match operands with
            | Operand.Reg r :: srcs -> Some { op; cmp; dst = Some r; srcs; pred }
            | _ -> None
          else Some { op; cmp; dst = None; srcs = operands; pred })
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
