(* The four workloads: their inputs, derived from the seed, and what a
   child process does to measure them.

   Every workload is built from passes of identical composition: a pass
   covers a fixed, balanced set of kernel x GPU pairs, and the seed only
   shuffles order and draws sizes and edit constants.  So the work a
   pass does — and with it every median — does not depend on the seed
   or on how many passes fit the run, and two runs with different seeds
   measure the same thing.  Each operation is either [cold] (the first
   touch of its pair in the pass's fresh cache directory) or [warm] (a
   later touch, served partly from what the cold one left). *)

open Gat_tuner

type cls = Cold | Warm

let string_of_cls = function Cold -> "cold" | Warm -> "warm"

type item = {
  cls : cls;
  kernel : Gat_ir.Kernel.t;
  gpu : Gat_arch.Gpu.t;
  n : int;
  strategy : Tuner.strategy;  (** static-tune only. *)
  label : string;
}

let kernels = Gat_workloads.Workloads.all
let gpus = Gat_arch.Gpu.all
let sizes = Gat_workloads.Workloads.input_sizes

(* Four pairs covering every kernel and every GPU once; each workload
   takes a different diagonal so together they cover more pairs. *)
let latin shift =
  List.mapi (fun i k -> (k, List.nth gpus ((i + shift) mod List.length gpus))) kernels

let all_pairs = List.concat_map (fun k -> List.map (fun g -> (k, g)) gpus) kernels

let rng seed salt = Gat_util.Rng.create (Hashtbl.hash (seed, salt))

let shuffled r l =
  let a = Array.of_list l in
  Gat_util.Rng.shuffle r a;
  Array.to_list a

let pick r l = Gat_util.Rng.choose r (Array.of_list l)

let item ?(strategy = Tuner.Static) ?(tag = "") cls kernel gpu n =
  let label =
    Printf.sprintf "%s/%s/%d%s" kernel.Gat_ir.Kernel.name gpu.Gat_arch.Gpu.name n tag
  in
  { cls; kernel; gpu; n; strategy; label }

(* ---- one-statement edits (edit-resweep) ---- *)

let rec map_expr f e =
  let open Gat_ir.Expr in
  let e = match e with
    | Read (a, idx) -> Read (a, List.map (map_expr f) idx)
    | Bin (op, a, b) -> Bin (op, map_expr f a, map_expr f b)
    | Cmp (op, a, b) -> Cmp (op, map_expr f a, map_expr f b)
    | Un (op, a) -> Un (op, map_expr f a)
    | Select (c, a, b) -> Select (map_expr f c, map_expr f a, map_expr f b)
    | (Int _ | Float _ | Size | Var _) as leaf -> leaf
  in
  f e

let rec map_stmt f s =
  let open Gat_ir.Stmt in
  match f s with
  | Some s' -> s'
  | None -> (
      match s with
      | For l -> For { l with body = List.map (map_stmt f) l.body }
      | If (c, a, b) -> If (c, List.map (map_stmt f) a, List.map (map_stmt f) b)
      | (Assign _ | Store _ | Sync) as leaf -> leaf)

(* The same kernel (same name, so the in-process sweep cache must be
   cleared between iterations) with one statement changed: the
   accumulator initializer in atax and bicg, the Laplacian's 6.0
   coefficient in ex14fj, an added constant term in matvec2d's store. *)
let edit (k : Gat_ir.Kernel.t) c =
  let open Gat_ir in
  let rewrite =
    match k.Kernel.name with
    | "atax" | "bicg" -> (
        function
        | Stmt.Assign (("tmp" | "acc") as v, Expr.Float 0.0) ->
            Some (Stmt.Assign (v, Expr.Float c))
        | _ -> None)
    | "ex14fj" -> (
        function
        | Stmt.Assign ("lap", e) ->
            Some
              (Stmt.Assign
                 ( "lap",
                   map_expr
                     (function Expr.Float 6.0 -> Expr.Float c | e -> e)
                     e ))
        | _ -> None)
    | "matvec2d" -> (
        function
        | Stmt.Store ("y", idx, e) ->
            Some (Stmt.Store ("y", idx, Expr.Bin (Expr.Add, e, Expr.Float c)))
        | _ -> None)
    | name -> invalid_arg ("Scenario.edit: no edit for kernel " ^ name)
  in
  let edited =
    Kernel.make ~name:k.Kernel.name ~description:k.Kernel.description
      ~arrays:k.Kernel.arrays
      (List.map (map_stmt rewrite) k.Kernel.body)
  in
  if Kernel.to_string edited = Kernel.to_string k then
    invalid_arg ("Scenario.edit: edit left the kernel unchanged: " ^ k.Kernel.name);
  edited

(* Constants of at most three significant decimals past the stock
   value: [Kernel.to_string], which keys the sweep cache, prints floats
   with six significant digits, so constants closer than that would
   give two edits the same key. *)
let edit_constant (k : Gat_ir.Kernel.t) m =
  let m = float_of_int m in
  if k.Gat_ir.Kernel.name = "ex14fj" then 6.0 +. (m *. 1e-3) else m *. 1e-3

let edits_per_kernel = 2

(* Fresh processes re-rendering a pair over the cache its cold render
   left.  A warm render takes a few dozen milliseconds, so a single one
   per pair gives a median of too few samples to hold still on a busy
   host. *)
let warm_renders = 4

(* ---- plans ---- *)

let plan workload seed =
  match workload with
  | "reproduce" ->
      (* The reports are pinned to the paper's seed, like every report
         the CLI renders; the workload seed only drives the sample
         checks. *)
      List.concat_map
        (fun (k, g) ->
          let n = Gat_report.Context.eval_size k in
          item Cold k g n :: List.init warm_renders (fun _ -> item Warm k g n))
        (latin 1)
  | "static-tune" ->
      (* First every pair once with the static strategy, which fills the
         artifact store for its variants; then each pair again with
         static+rules (a subset of those variants) and with static at
         another size. *)
      let r = rng seed workload in
      let request cls (strategy, (k, g)) =
        item ~strategy ~tag:("/" ^ Tuner.strategy_name strategy) cls k g (pick r (sizes k))
      in
      let cold = List.map (fun p -> request Cold (Tuner.Static, p)) (shuffled r all_pairs) in
      let warm =
        List.map (request Warm)
          (shuffled r
             (List.concat_map
                (fun p -> [ (Tuner.Static_rules, p); (Tuner.Static, p) ])
                all_pairs))
      in
      cold @ warm
  | "edit-resweep" ->
      let r = rng seed workload in
      List.concat_map
        (fun (k, g) ->
          let base = 1 + Gat_util.Rng.int r (999 - edits_per_kernel) in
          let stock = item Cold k g (pick r (sizes k)) in
          let edits =
            List.init edits_per_kernel (fun i ->
                let c = edit_constant k (base + i) in
                let it = item ~tag:(Printf.sprintf "/edit=%h" c) Warm k g (pick r (sizes k)) in
                { it with kernel = edit k c })
          in
          stock :: edits)
        (shuffled r (latin 2))
  | "fleet-sweep" ->
      let r = rng seed workload in
      List.concat_map
        (fun (k, g) ->
          let d = Gat_workloads.Workloads.default_size k in
          [
            item Cold k g d;
            item Warm k g (pick r (List.filter (fun n -> n <> d) (sizes k)));
          ])
        (shuffled r (latin 3))
  | w -> invalid_arg ("Scenario.plan: unknown workload " ^ w)

(* The paper's evaluation space and the sharded sweep's shard count. *)
let space = Space.paper
let shards = 8

(* ---- output digests ---- *)

let md5 s = Digest.to_hex (Digest.string s)

let report_digest (r : Tuner.report) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (v : Variant.t) ->
      Printf.bprintf b "%s %h %d %h\n"
        (Gat_compiler.Params.to_string v.Variant.params)
        v.Variant.time_ms v.Variant.registers v.Variant.occupancy)
    r.Tuner.variants;
  List.iter (fun f -> Printf.bprintf b "failed %s\n" (Variant.failure_summary f)) r.Tuner.failures;
  List.iter (fun u -> Printf.bprintf b "unsafe %s\n" (Variant.unsafe_summary u)) r.Tuner.unsafe;
  md5 (Buffer.contents b)

(* The paper's sweep-free reports, rendered with every Fig. 4 panel. *)
let light_reports =
  [ "table1"; "table2"; "table3"; "fig3"; "table4"; "fig1"; "table6"; "table7"; "fig7" ]
