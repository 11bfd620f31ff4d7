type cls = Gpr | Pred
type t = { cls : cls; id : int }

let gpr id = { cls = Gpr; id }
let pred id = { cls = Pred; id }

let compare a b =
  match (a.cls, b.cls) with
  | Gpr, Pred -> -1
  | Pred, Gpr -> 1
  | Gpr, Gpr | Pred, Pred -> Int.compare a.id b.id

let equal a b = compare a b = 0

(* Digits of [n <= 0], most significant first; working on the
   non-positive side keeps [min_int] exact. *)
let rec add_nonpos_digits buf n =
  if n <= -10 then add_nonpos_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos_digits buf n
  end
  else add_nonpos_digits buf (-n)

let add_to_buffer buf t =
  Buffer.add_char buf (match t.cls with Gpr -> 'R' | Pred -> 'P');
  add_int buf t.id

let to_string t =
  let buf = Buffer.create 8 in
  add_to_buffer buf t;
  Buffer.contents buf

let of_string s =
  let parse_id prefix =
    let body = String.sub s 1 (String.length s - 1) in
    match int_of_string_opt body with
    | Some id when id >= 0 -> Some { cls = prefix; id }
    | Some _ | None -> None
  in
  if String.length s < 2 then None
  else
    match s.[0] with
    | 'R' -> parse_id Gpr
    | 'P' -> parse_id Pred
    | _ -> None

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
