type agg = { execs : float; lanes : float }

type t = {
  total_warps : int;
  warps_per_block : int;
  work_items : int -> int;
  block_counts : int -> (string * agg) list;
}

let zero_agg = { execs = 0.0; lanes = 1.0 }

let find_counts t ~n label =
  match List.assoc_opt label (t.block_counts n) with
  | Some agg -> agg
  | None -> zero_agg

(* ---- pure expression evaluation ---- *)

let rec eval_pure ~bindings ~n (e : Gat_ir.Expr.t) =
  let open Gat_ir.Expr in
  let both f a b =
    match (eval_pure ~bindings ~n a, eval_pure ~bindings ~n b) with
    | Some x, Some y -> Some (f x y)
    | _ -> None
  in
  match e with
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Size -> Some (float_of_int n)
  | Var v -> List.assoc_opt v bindings
  | Read _ -> None
  | Bin (Add, a, b) -> both ( +. ) a b
  | Bin (Sub, a, b) -> both ( -. ) a b
  | Bin (Mul, a, b) -> both ( *. ) a b
  | Bin (Div, a, b) ->
      (* Integer semantics for index arithmetic: truncate. *)
      both (fun x y -> if y = 0.0 then 0.0 else Float.of_int (int_of_float (x /. y))) a b
  | Bin (Min, a, b) -> both Float.min a b
  | Bin (Max, a, b) -> both Float.max a b
  | Cmp (op, a, b) ->
      let f x y =
        let r =
          match op with
          | Eq -> x = y
          | Ne -> x <> y
          | Lt -> x < y
          | Le -> x <= y
          | Gt -> x > y
          | Ge -> x >= y
        in
        if r then 1.0 else 0.0
      in
      both f a b
  | Un (Neg, a) -> Option.map (fun x -> -.x) (eval_pure ~bindings ~n a)
  | Un (Abs, a) -> Option.map Float.abs (eval_pure ~bindings ~n a)
  | Un (Sqrt, a) -> Option.map sqrt (eval_pure ~bindings ~n a)
  | Un (Recip, a) -> Option.map (fun x -> 1.0 /. x) (eval_pure ~bindings ~n a)
  | Un (Exp, a) -> Option.map exp (eval_pure ~bindings ~n a)
  | Un (Log, a) -> Option.map log (eval_pure ~bindings ~n a)
  | Un (Sin, a) -> Option.map sin (eval_pure ~bindings ~n a)
  | Un (Cos, a) -> Option.map cos (eval_pure ~bindings ~n a)
  | Select (c, a, b) -> (
      match eval_pure ~bindings ~n c with
      | Some cv ->
          if cv <> 0.0 then eval_pure ~bindings ~n a else eval_pure ~bindings ~n b
      | None -> None)

(* [monte_carlo_prob] is a pure function of its arguments (the sampler
   is seeded deterministically below), and a sweep calls it with the
   same branch condition from every point of the TC x BC plane — so
   results are shared process-wide, keyed by the arguments themselves.
   Content keying makes the memo bit-exact by construction. *)
module Mc = Gat_util.Memo.Make (struct
  type t = Gat_ir.Expr.t * string * Gat_ir.Expr.t * Gat_ir.Expr.t * int

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

let mc_memo : float Mc.t = Mc.create ()

let monte_carlo_prob_uncached ~cond ~var ~lo ~hi ~n =
  let samples = 512 in
  match
    (eval_pure ~bindings:[] ~n lo, eval_pure ~bindings:[] ~n hi)
  with
  | Some lov, Some hiv when hiv > lov ->
      let rng = Gat_util.Rng.create 0x9E37 in
      let hits = ref 0 and valid = ref 0 in
      for _ = 1 to samples do
        let x = Float.of_int (int_of_float (lov +. Gat_util.Rng.float rng (hiv -. lov))) in
        match eval_pure ~bindings:[ (var, x) ] ~n cond with
        | Some v ->
            incr valid;
            if v <> 0.0 then incr hits
        | None -> ()
      done;
      if !valid = 0 then 0.5 else float_of_int !hits /. float_of_int !valid
  | _ -> 0.5

let monte_carlo_prob ~cond ~var ~lo ~hi ~n =
  Mc.find_or_compute mc_memo (cond, var, lo, hi, n) (fun () ->
      monte_carlo_prob_uncached ~cond ~var ~lo ~hi ~n)
