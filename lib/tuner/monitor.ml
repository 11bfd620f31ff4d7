(* Live fleet view over a coordination directory.

   [gat monitor DIR] is read-only: it never takes leases, never
   writes, and builds its table purely from what the shard protocol
   already leaves on disk — each process's telemetry record says which
   shard it holds (while the record is under one ttl old), how fast it
   is moving and where its latency lives; a record's crash note says
   who died screaming.  One row per (host,pid) ever seen in the
   directory. *)

open Gat_util

type row = {
  host : string;
  pid : int;
  shard : int option;  (* held shard index, from a fresh record *)
  points : int;
  rate : float;  (* points/s averaged since the process's anchor *)
  p50_ns : int;
  p99_ns : int;
  snapshot_age_s : float;
  reclaimed : int;
  crashed : bool;
  crash_note : string;
}

let counter_of snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Telemetry.counters)

(* Block latency = compile + simulate phases, bucket-wise. *)
let block_hist snap =
  let h = Histogram.Log.create () in
  List.iter
    (fun (name, src) ->
      if name = "sweep.compile" || name = "sweep.simulate" then
        Histogram.Log.merge_into ~into:h src)
    snap.Telemetry.histograms;
  h

let rows ?(now = Unix.gettimeofday ()) dir =
  let ttl =
    match Shard.read_manifest dir with
    | Some m -> m.Shard.ttl
    | None -> Shard.default_ttl
  in
  (* Header-only: a row needs counters, histograms and the anchor,
     never the events, so no events log is opened. *)
  let snaps, skipped = Telemetry.load_dir ~header_only:true dir in
  let row_of snap =
    let crashed = snap.Telemetry.note <> "" in
    let age =
      Float.max 0.
        (now -. (Int64.to_float snap.Telemetry.captured_wall_ns /. 1e9))
    in
    (* The record is the holder's heartbeat: a hold whose record is
       older than one ttl, or that a crash republished, belongs to a
       dead holder. *)
    let shard =
      match snap.Telemetry.hold with
      | Some h when age <= ttl && not crashed -> Some h.Telemetry.shard
      | _ -> None
    in
    let elapsed_s =
      Int64.to_float
        (Int64.sub snap.Telemetry.captured_wall_ns snap.Telemetry.anchor_wall_ns)
      /. 1e9
    in
    let points = counter_of snap "sweep.points" in
    let h = block_hist snap in
    {
      host = snap.Telemetry.host;
      pid = snap.Telemetry.pid;
      shard;
      points;
      rate = (if elapsed_s > 0. then float_of_int points /. elapsed_s else 0.);
      p50_ns = Histogram.Log.percentile_ns h 0.5;
      p99_ns = Histogram.Log.percentile_ns h 0.99;
      snapshot_age_s = age;
      reclaimed = counter_of snap "shard.leases_reclaimed";
      crashed;
      crash_note = snap.Telemetry.note;
    }
  in
  (List.map row_of snaps, skipped)

(* One fixed-width line per worker; pure so the table is golden-
   testable and greppable in non-TTY mode. *)
let header =
  Printf.sprintf "%-20s %6s %8s %8s %9s %9s %7s %8s %s" "worker" "shard"
    "points" "pts/s" "p50" "p99" "renew" "reclaims" "status"

let render_row r =
  let worker = Printf.sprintf "%s:%d" r.host r.pid in
  let shard, renew =
    match r.shard with
    | Some i -> (string_of_int i, Printf.sprintf "%.0fs" r.snapshot_age_s)
    | None -> ("-", "-")
  in
  let status =
    if r.crashed then "crashed: " ^ r.crash_note
    else if r.shard <> None then "running"
    else Printf.sprintf "idle %.0fs" r.snapshot_age_s
  in
  Printf.sprintf "%-20s %6s %8d %8.1f %9s %9s %7s %8d %s" worker shard
    r.points r.rate
    (Histogram.Log.pp_ns r.p50_ns)
    (Histogram.Log.pp_ns r.p99_ns)
    renew r.reclaimed status

let render rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Buffer.add_string b (render_row r);
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b
