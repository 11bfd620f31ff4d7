type t = { c0 : float; c1 : float; c2 : float; c3 : float }

let make c0 c1 c2 c3 = { c0; c1; c2; c3 }
let zero = make 0.0 0.0 0.0 0.0
let one = make 1.0 0.0 0.0 0.0
let const c = make c 0.0 0.0 0.0
let linear c = make 0.0 c 0.0 0.0
let quadratic c = make 0.0 0.0 c 0.0
let cubic c = make 0.0 0.0 0.0 c

let add a b =
  make (a.c0 +. b.c0) (a.c1 +. b.c1) (a.c2 +. b.c2) (a.c3 +. b.c3)

let sub a b =
  make (a.c0 -. b.c0) (a.c1 -. b.c1) (a.c2 -. b.c2) (a.c3 -. b.c3)

let scale k a = make (k *. a.c0) (k *. a.c1) (k *. a.c2) (k *. a.c3)

let mul a b =
  let coef_a = [| a.c0; a.c1; a.c2; a.c3 |] in
  let coef_b = [| b.c0; b.c1; b.c2; b.c3 |] in
  let out = Array.make 7 0.0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      out.(i + j) <- out.(i + j) +. (coef_a.(i) *. coef_b.(j))
    done
  done;
  for k = 4 to 6 do
    if out.(k) <> 0.0 then invalid_arg "Weight.mul: degree exceeds 3"
  done;
  make out.(0) out.(1) out.(2) out.(3)

let eval t ~n =
  let fn = float_of_int n in
  t.c0 +. (fn *. (t.c1 +. (fn *. (t.c2 +. (fn *. t.c3)))))

let degree t =
  if t.c3 <> 0.0 then 3
  else if t.c2 <> 0.0 then 2
  else if t.c1 <> 0.0 then 1
  else 0

let to_string t = Printf.sprintf "%h,%h,%h,%h" t.c0 t.c1 t.c2 t.c3

let of_string s =
  match String.split_on_char ',' s |> List.map float_of_string_opt with
  | [ Some c0; Some c1; Some c2; Some c3 ] -> Some { c0; c1; c2; c3 }
  | _ -> None

let equal a b = a.c0 = b.c0 && a.c1 = b.c1 && a.c2 = b.c2 && a.c3 = b.c3
