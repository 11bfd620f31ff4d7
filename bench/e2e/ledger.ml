(* The per-layer time ledger: folds a process's trace spans into one row
   per layer, where a layer is charged its spans' self time (duration
   minus the part of that interval its child spans cover).  Self times
   partition the root spans' time, so the rows sum to the traced wall
   time; time the program spends outside any layer span lands in
   [unattributed], the self time of the benchmark's own spans.

   Spans the program records map to layers by name.  A span this table
   does not know (a later instrumentation point) is transparent: its
   self time is charged to the layer of the span enclosing it, so the
   ledger keeps closing when spans are added. *)

let layer_of_name = function
  | "compile.lower" -> Some "lowering"
  | "compile.schedule" -> Some "schedule"
  | "compile.regalloc" -> Some "regalloc"
  | "compile.coalescing" -> Some "coalescing"
  | "compile.block_table" -> Some "block_table"
  | "compile" -> Some "compile"
  | "verify.run" -> Some "verify"
  | "simulate" -> Some "engine"
  | "cache.read" -> Some "disk_cache.read"
  | "cache.write" -> Some "disk_cache.write"
  | "pool.range" -> Some "pool"
  | "sweep.compile" | "sweep.simulate" -> Some "tuner"
  | "shard.eval" -> Some "shard"
  | "shard.merge" -> Some "shard.merge"
  | "bench.op" -> Some "unattributed"
  | _ -> None

(* The benchmark wraps each library call it makes in a [bench.call]
   span whose [layer] argument names the layer that owns the call. *)
let layer_of (ev : Gat_util.Trace.event) =
  match ev.name with
  | "bench.call" -> (
      match List.assoc_opt "layer" ev.args with
      | Some (Gat_util.Trace.S l) -> Some l
      | _ -> None)
  | name -> layer_of_name name

(* Layers whose spans enclose other layers report self time; leaf
   layers report their whole span time. *)
let containers = [ "compile"; "tuner"; "pool"; "shard" ]

let metric_name layer =
  if List.mem layer containers || String.starts_with ~prefix:"experiments." layer
  then layer ^ ".self_s"
  else if String.contains layer '.' then layer ^ "_s"
  else layer ^ ".s"

type t = {
  rows : (string * int64) list;  (** Layer, self time in ns; sorted by layer. *)
  wall_ns : int64;  (** Sum of the root spans' durations. *)
}

let empty = { rows = []; wall_ns = 0L }

let of_charges charges wall_ns =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (l, ns) ->
      Hashtbl.replace tbl l
        (Int64.add ns (Option.value ~default:0L (Hashtbl.find_opt tbl l))))
    charges;
  {
    rows = List.sort compare (Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) tbl []);
    wall_ns;
  }

type open_span = { stop : int64; dur : int64; layer : string; mutable covered : int64 }

(* One track's spans, parents before children: a stack of the spans
   still open at each start time gives every span its parent. *)
let track_charges evs =
  let charges = ref [] and wall = ref 0L and stack = ref [] in
  let close s = charges := (s.layer, Int64.max 0L (Int64.sub s.dur s.covered)) :: !charges in
  List.iter
    (fun (e : Gat_util.Trace.event) ->
      let rec pop () =
        match !stack with
        | top :: rest when top.stop <= e.ts_ns ->
            close top;
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      let stop = Int64.add e.ts_ns e.dur_ns in
      let parent = match !stack with p :: _ -> Some p | [] -> None in
      let layer =
        match (layer_of e, parent) with
        | Some l, _ -> l
        | None, Some p -> p.layer
        | None, None -> "unattributed"
      in
      (match parent with
      | Some p -> p.covered <- Int64.add p.covered (Int64.sub (Int64.min stop p.stop) e.ts_ns)
      | None -> wall := Int64.add !wall e.dur_ns);
      stack := { stop; dur = e.dur_ns; layer; covered = 0L } :: !stack)
    (List.sort
       (fun (a : Gat_util.Trace.event) (b : Gat_util.Trace.event) ->
         match Int64.compare a.ts_ns b.ts_ns with
         | 0 -> Int64.compare b.dur_ns a.dur_ns
         | c -> c)
       evs);
  List.iter close !stack;
  (!charges, !wall)

let of_events (events : Gat_util.Trace.event list) =
  let spans = List.filter (fun (e : Gat_util.Trace.event) -> e.ph = 'X') events in
  let tids = List.sort_uniq compare (List.map (fun (e : Gat_util.Trace.event) -> e.tid) spans) in
  let charges, wall =
    List.fold_left
      (fun (cs, w) tid ->
        let c, tw =
          track_charges (List.filter (fun (e : Gat_util.Trace.event) -> e.tid = tid) spans)
        in
        (c @ cs, Int64.add w tw))
      ([], 0L) tids
  in
  of_charges charges wall

let add a b = of_charges (a.rows @ b.rows) (Int64.add a.wall_ns b.wall_ns)

let total t = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L t.rows

(* Relative gap between the rows' sum and a wall time measured around
   the traced work; near zero when the spans nest properly on each
   track and the root spans cover the measured interval. *)
let closure_error t ~wall_ns =
  if wall_ns = 0L then 0.0
  else
    Float.abs (Int64.to_float (Int64.sub (total t) wall_ns))
    /. Int64.to_float wall_ns

let seconds t layer =
  match List.assoc_opt layer t.rows with
  | Some ns -> Int64.to_float ns /. 1e9
  | None -> 0.0
