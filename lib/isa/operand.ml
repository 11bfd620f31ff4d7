type special = Tid_x | Ntid_x | Ctaid_x | Nctaid_x | Laneid
type space = Global | Shared | Const | Local | Param

type t =
  | Reg of Register.t
  | Imm of int
  | FImm of float
  | Special of special
  | Addr of addr

and addr = { space : space; base : Register.t; offset : int }

let special_to_string = function
  | Tid_x -> "%tid.x"
  | Ntid_x -> "%ntid.x"
  | Ctaid_x -> "%ctaid.x"
  | Nctaid_x -> "%nctaid.x"
  | Laneid -> "%laneid"

let special_of_string = function
  | "%tid.x" -> Some Tid_x
  | "%ntid.x" -> Some Ntid_x
  | "%ctaid.x" -> Some Ctaid_x
  | "%nctaid.x" -> Some Nctaid_x
  | "%laneid" -> Some Laneid
  | _ -> None

let space_to_string = function
  | Global -> "global"
  | Shared -> "shared"
  | Const -> "const"
  | Local -> "local"
  | Param -> "param"

let space_of_string = function
  | "global" -> Some Global
  | "shared" -> Some Shared
  | "const" -> Some Const
  | "local" -> Some Local
  | "param" -> Some Param
  | _ -> None

let reg r = Reg r
let imm i = Imm i
let fimm f = FImm f
let addr space base offset = Addr { space; base; offset }

let registers = function
  | Reg r -> [ r ]
  | Addr { base; _ } -> [ base ]
  | Imm _ | FImm _ | Special _ -> []

let add_to_buffer buf = function
  | Reg r -> Register.add_to_buffer buf r
  | Imm i -> Gat_util.Store.add_decimal buf i
  | FImm f -> Printf.bprintf buf "%h" f
  | Special s -> Buffer.add_string buf (special_to_string s)
  | Addr { space; base; offset } ->
      Buffer.add_char buf '[';
      Buffer.add_string buf (space_to_string space);
      Buffer.add_char buf ':';
      Register.add_to_buffer buf base;
      if offset <> 0 then begin
        Buffer.add_char buf '+';
        Gat_util.Store.add_decimal buf offset
      end;
      Buffer.add_char buf ']'

let to_string t =
  let buf = Buffer.create 16 in
  add_to_buffer buf t;
  Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then None
  else if s.[0] = '%' then
    match special_of_string s with Some sp -> Some (Special sp) | None -> None
  else if s.[0] = '[' && len >= 2 && s.[len - 1] = ']' then begin
    let body = String.sub s 1 (len - 2) in
    match String.index_opt body ':' with
    | None -> None
    | Some colon -> (
        let space_str = String.sub body 0 colon in
        let rest = String.sub body (colon + 1) (String.length body - colon - 1) in
        let base_str, offset =
          match String.index_opt rest '+' with
          | None -> (rest, Some 0)
          | Some plus ->
              ( String.sub rest 0 plus,
                int_of_string_opt
                  (String.sub rest (plus + 1) (String.length rest - plus - 1)) )
        in
        match (space_of_string space_str, Register.of_string base_str, offset) with
        | Some space, Some base, Some offset -> Some (Addr { space; base; offset })
        | _ -> None)
  end
  else
    match Register.of_string s with
    | Some r -> Some (Reg r)
    | None -> (
        match int_of_string_opt s with
        | Some i -> Some (Imm i)
        | None -> (
            match float_of_string_opt s with
            | Some f -> Some (FImm f)
            | None -> None))
