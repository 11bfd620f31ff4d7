type binop = Add | Sub | Mul | Div | Min | Max
type cmpop = Eq | Ne | Lt | Le | Gt | Ge
type unop = Neg | Sqrt | Recip | Exp | Log | Sin | Cos | Abs

type t =
  | Int of int
  | Float of float
  | Size
  | Var of string
  | Read of string * t list
  | Bin of binop * t * t
  | Cmp of cmpop * t * t
  | Un of unop * t
  | Select of t * t * t

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let cmpop_name = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let unop_name = function
  | Neg -> "-"
  | Sqrt -> "sqrt"
  | Recip -> "recip"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Abs -> "abs"

let rec fold_leaves f acc e =
  match e with
  | Int _ | Float _ | Size -> acc
  | Var _ | Read (_, []) -> f acc e
  | Read (_, idxs) ->
      let acc = f acc e in
      List.fold_left (fold_leaves f) acc idxs
  | Bin (_, a, b) | Cmp (_, a, b) -> fold_leaves f (fold_leaves f acc a) b
  | Un (_, a) -> fold_leaves f acc a
  | Select (c, a, b) ->
      fold_leaves f (fold_leaves f (fold_leaves f acc c) a) b

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

let free_vars e =
  fold_leaves
    (fun acc leaf -> match leaf with Var v -> v :: acc | _ -> acc)
    [] e
  |> List.rev |> dedup

let arrays_read e =
  fold_leaves
    (fun acc leaf -> match leaf with Read (a, _) -> a :: acc | _ -> acc)
    [] e
  |> List.rev |> dedup

let rec map_vars f e =
  match e with
  | Int _ | Float _ | Size -> e
  | Var v -> f v
  | Read (a, idxs) -> Read (a, List.map (map_vars f) idxs)
  | Bin (op, a, b) -> Bin (op, map_vars f a, map_vars f b)
  | Cmp (op, a, b) -> Cmp (op, map_vars f a, map_vars f b)
  | Un (op, a) -> Un (op, map_vars f a)
  | Select (c, a, b) -> Select (map_vars f c, map_vars f a, map_vars f b)

(* The shortest of [%.6g] .. [%.17g] that reads back as [f]: exactly
   [%g]'s text whenever [%g] round-trips, and never two distinct
   constants printed alike (the sweep cache keys on this text). *)
let float_to_string f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
  in
  go 6

let ( + ) a b = Bin (Add, a, b)
let ( - ) a b = Bin (Sub, a, b)
let ( * ) a b = Bin (Mul, a, b)
let ( / ) a b = Bin (Div, a, b)
let int i = Int i
let float f = Float f
let var v = Var v
let read a idxs = Read (a, idxs)

let rec to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Size -> "N"
  | Var v -> v
  | Read (a, idxs) ->
      a ^ String.concat "" (List.map (fun i -> "[" ^ to_string i ^ "]") idxs)
  | Bin ((Min | Max) as op, a, b) ->
      Printf.sprintf "%s(%s, %s)" (binop_name op) (to_string a) (to_string b)
  | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (binop_name op) (to_string b)
  | Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (cmpop_name op) (to_string b)
  | Un (Neg, a) -> Printf.sprintf "(-%s)" (to_string a)
  | Un (op, a) -> Printf.sprintf "%s(%s)" (unop_name op) (to_string a)
  | Select (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (to_string c) (to_string a) (to_string b)
