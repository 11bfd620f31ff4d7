type objective = Gat_compiler.Params.t -> float option

type outcome = {
  best_params : Gat_compiler.Params.t option;
  best_time : float;
  evaluations : int;
}

type axis =
  | Tc of int array
  | Bc of int array
  | Uif of int array
  | Pl of int array
  | Sc of int array
  | Fm of bool array

type axes = axis array

let axes_of_space (s : Space.t) =
  [|
    Tc (Array.of_list s.Space.tc);
    Bc (Array.of_list s.Space.bc);
    Uif (Array.of_list s.Space.uif);
    Pl (Array.of_list s.Space.pl);
    Sc (Array.of_list s.Space.sc);
    Fm (Array.of_list s.Space.cflags);
  |]

let dims (a : axes) = Array.length a

let axis_length (a : axes) i =
  match a.(i) with
  | Tc v | Bc v | Uif v | Pl v | Sc v -> Array.length v
  | Fm v -> Array.length v

let clamp lo hi x = max lo (min hi x)

let params_of_point (a : axes) point =
  let idx i = clamp 0 (axis_length a i - 1) point.(i) in
  let geti = function
    | Tc v | Bc v | Uif v | Pl v | Sc v -> fun k -> v.(k)
    | Fm _ -> fun _ -> assert false
  in
  let tc = (geti a.(0)) (idx 0) in
  let bc = (geti a.(1)) (idx 1) in
  let uif = (geti a.(2)) (idx 2) in
  let pl = (geti a.(3)) (idx 3) in
  let sc = (geti a.(4)) (idx 4) in
  let fm = match a.(5) with Fm v -> v.(idx 5) | _ -> assert false in
  Gat_compiler.Params.make ~threads_per_block:tc ~block_count:bc ~unroll:uif
    ~l1_pref_kb:pl ~staging:sc ~fast_math:fm ()

let random_point rng (a : axes) =
  Array.init (dims a) (fun i -> Gat_util.Rng.int rng (axis_length a i))

let counting_objective objective =
  let count = ref 0 in
  let wrapped params =
    incr count;
    objective params
  in
  (wrapped, fun () -> !count)

module Points = Gat_util.Memo.Make (struct
  type t = Gat_compiler.Params.t

  let equal a b = Gat_compiler.Params.compare a b = 0
  let hash = Hashtbl.hash
end)

(* Safe to share between Gat_util.Pool workers: concurrent first
   evaluations of one point run the objective once. *)
let memoized_objective objective =
  let memo = Points.create () in
  fun params -> Points.find_or_compute memo params (fun () -> objective params)
