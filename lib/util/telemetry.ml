(* Fleet telemetry snapshots.

   A sharded sweep is many processes on many machines; each one's
   trace buffers, counters and latency histograms die with it unless
   they are made durable.  This module gives every coordinator/worker
   two files in the coordination directory:

   - the record [<host>.<pid>.telem]: small, sealed and atomically
     renamed, refreshed after every block (with the held shard's
     prefix; its mtime is the lease heartbeat) and on every exit path —
     so a SIGKILLed worker's last flush survives its death;
   - the events log [<host>.<pid>.events]: every flush writes only the
     trace events recorded since the previous one, as one framed batch,
     before it publishes the record that counts them.

   The crash flight recorder republishes the same record with the
   failure as its note and the last flush's hold, from the fatal-error
   and fatal-signal paths: one record per process, whatever its end.

   The record is line-oriented text inside the standard {!Sealed_file}
   envelope: a header (host, pid, the monotonic→wall epoch anchor,
   dropped-event count, an optional crash note), then tagged lines —
   [counter NAME V], [timer NAME EVENTS NS], [hist NAME <sparse
   buckets>], [hold SHARD OWNER BYTES] and that many bytes of prefix —
   and finally [events N BYTES]: the record's events are the first
   BYTES bytes of the log, N of them.  The log is a sequence of frames
   [batch LEN MD5\n] + LEN bytes of trace events, one JSON object per
   line ({!Trace.serialize_events}).  A batch is written at offset
   BYTES of the record before it, never appended blind: a crash dump
   that interrupts a flush rewrites the same region, and a published
   record only counts bytes written before it.  Bytes past BYTES (a
   SIGKILL mid-write) are ignored; a short, torn or flipped log fails a
   frame's MD5 or the count, and the snapshot is skipped and counted
   by readers, never trusted partially.

   Clock alignment: monotonic timestamps from different machines (or
   different boots) share no origin, so each snapshot carries one
   [(anchor_mono_ns, anchor_wall_ns)] pair sampled back-to-back at
   enable time.  The merge maps every event through
   [wall = anchor_wall + (ts - anchor_mono)], which aligns processes
   to within the clocks' skew without requiring synchronized
   monotonic origins. *)

let magic = "gat-telem 1"
let m_flushes = Metrics.counter "telem.flushes"
let m_skipped = Metrics.counter "telem.snapshots_skipped"
let m_crashes = Metrics.counter "telem.crashes"
let m_bytes = Metrics.counter "telem.bytes_written"

type hold = { shard : int; owner : string; prefix : string }

type snapshot = {
  host : string;
  pid : int;
  anchor_mono_ns : int64;
  anchor_wall_ns : int64;
  captured_wall_ns : int64;  (* capture instant, anchor-aligned wall ns *)
  dropped : int;
  note : string;  (* crash reason; empty for periodic snapshots *)
  counters : (string * int) list;
  timers : (string * int * int) list;  (* name, events, total ns *)
  histograms : (string * Histogram.Log.t) list;
  hold : hold option;
  events : Trace.event list;
}

(* ---- session state ---- *)

(* How far the session's events log is written: the trace cursor past
   its last batch, its valid length and its event count.  Immutable,
   and swapped in with one field write after a batch is written, so a
   crash dump from a signal handler that interrupts a flush starts from
   a consistent state (and rewrites the interrupted batch's region). *)
type event_log = { cursor : Trace.cursor; bytes : int; count : int }

let no_log = { cursor = Trace.start; bytes = 0; count = 0 }

type session = {
  dir : string;
  s_host : string;
  s_pid : int;
  s_anchor_mono_ns : int64;
  s_anchor_wall_ns : int64;
  mutable log : event_log;
  mutable log_fd : Unix.file_descr option;  (* opened at the first publish *)
  mutable held : hold option;  (* the last flush's hold, for a crash dump *)
}

let session : session option ref = ref None
let lock = Mutex.create ()

(* Whether this module turned span recording on (as opposed to the CLI
   having registered a [--trace] output first); owned recording is
   turned back off when the session ends. *)
let trace_owned = ref false

let close_log s =
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    s.log_fd;
  s.log_fd <- None

let enable ~dir =
  let s =
    {
      dir;
      s_host = Unix.gethostname ();
      s_pid = Unix.getpid ();
      (* Sampled back-to-back: the pair is this process's epoch anchor. *)
      s_anchor_mono_ns = Metrics.now_ns ();
      s_anchor_wall_ns = Int64.of_float (Unix.gettimeofday () *. 1e9);
      log = no_log;
      log_fd = None;
      held = None;
    }
  in
  Mutex.lock lock;
  Option.iter close_log !session;
  session := Some s;
  (* A telemetry session implies span recording: a worker started
     without [--trace] still fills its (bounded) ring buffers, so its
     snapshots carry events for the fleet merge.  [Trace.enable] never
     clobbers an output file registered by [--trace]. *)
  if not (Trace.on ()) then begin
    Trace.enable ();
    trace_owned := true
  end;
  Mutex.unlock lock

let disable () =
  Mutex.lock lock;
  Option.iter close_log !session;
  session := None;
  if !trace_owned then begin
    Trace.disable ();
    trace_owned := false
  end;
  Mutex.unlock lock

let active () =
  Mutex.lock lock;
  let s = !session in
  Mutex.unlock lock;
  s

let dir () = Option.map (fun s -> s.dir) (active ())

(* ---- capture ---- *)

(* Everything but the events, which {!publish} appends to the log. *)
let capture_header ~note ~hold s =
  {
    host = s.s_host;
    pid = s.s_pid;
    anchor_mono_ns = s.s_anchor_mono_ns;
    anchor_wall_ns = s.s_anchor_wall_ns;
    captured_wall_ns =
      Int64.add s.s_anchor_wall_ns
        (Int64.sub (Metrics.now_ns ()) s.s_anchor_mono_ns);
    dropped = Trace.dropped ();
    note;
    counters = Metrics.counters_snapshot ();
    timers =
      List.map
        (fun (name, events, seconds) ->
          (name, events, int_of_float (seconds *. 1e9)))
        (Metrics.timers_snapshot ());
    histograms = Metrics.histograms_snapshot ();
    hold;
    events = [];
  }

(* ---- serialization ---- *)

let oneline s =
  String.map (fun c -> match c with '\n' | '\r' -> ' ' | c -> c) s

let add_line b fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string b s;
      Buffer.add_char b '\n')
    fmt

(* Every line up to, not including, [events N BYTES]. *)
let add_header b snap =
  add_line b "%s" magic;
  add_line b "host %s" (oneline snap.host);
  add_line b "pid %d" snap.pid;
  add_line b "anchor_mono_ns %Ld" snap.anchor_mono_ns;
  add_line b "anchor_wall_ns %Ld" snap.anchor_wall_ns;
  add_line b "captured_wall_ns %Ld" snap.captured_wall_ns;
  add_line b "dropped %d" snap.dropped;
  if snap.note <> "" then add_line b "note %s" (oneline snap.note);
  List.iter (fun (name, v) -> add_line b "counter %s %d" name v) snap.counters;
  List.iter
    (fun (name, events, ns) -> add_line b "timer %s %d %d" name events ns)
    snap.timers;
  List.iter
    (fun (name, h) -> add_line b "hist %s %s" name (Histogram.Log.serialize h))
    snap.histograms;
  Option.iter
    (fun h ->
      add_line b "hold %d %s %d" h.shard h.owner (String.length h.prefix);
      Buffer.add_string b h.prefix)
    snap.hold

(* One log frame: [batch LEN MD5] and the batch's event lines. *)
let frame evs =
  let body = Trace.serialize_events evs in
  Printf.sprintf "batch %d %s\n%s" (String.length body)
    (Digest.to_hex (Digest.string body))
    body

let to_payload snap =
  let log = if snap.events = [] then "" else frame snap.events in
  let b = Buffer.create 4096 in
  add_header b snap;
  add_line b "events %d %d" (List.length snap.events) (String.length log);
  (b, log)

let split2 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* The record's snapshot (no events yet) and its [events N BYTES]. *)
let parse_record body =
  let len = String.length body in
  (* The line starting at [pos] and the position after its newline. *)
  let next pos =
    if pos >= len then None
    else
      let stop =
        Option.value ~default:len (String.index_from_opt body pos '\n')
      in
      Some (String.sub body pos (stop - pos), stop + 1)
  in
  match next 0 with
  | Some (m, pos) when m = magic -> (
      let host = ref "" and pid = ref (-1) in
      let amono = ref None and awall = ref None in
      let captured = ref None in
      let dropped = ref 0 and note = ref "" in
      let counters = ref [] and timers = ref [] and hists = ref [] in
      let hold = ref None in
      let events = ref None in
      try
        let rec go pos =
          match next pos with
          | None -> ()
          | Some (l, pos) -> (
              let tag, rest = split2 l in
              match tag with
              | "host" ->
                  host := rest;
                  go pos
              | "pid" ->
                  pid := int_of_string rest;
                  go pos
              | "anchor_mono_ns" ->
                  amono := Some (Int64.of_string rest);
                  go pos
              | "anchor_wall_ns" ->
                  awall := Some (Int64.of_string rest);
                  go pos
              | "captured_wall_ns" ->
                  captured := Some (Int64.of_string rest);
                  go pos
              | "dropped" ->
                  dropped := int_of_string rest;
                  go pos
              | "note" ->
                  note := rest;
                  go pos
              | "counter" ->
                  let name, v = split2 rest in
                  counters := (name, int_of_string v) :: !counters;
                  go pos
              | "timer" -> (
                  match String.split_on_char ' ' rest with
                  | [ name; ev; ns ] ->
                      timers :=
                        (name, int_of_string ev, int_of_string ns) :: !timers;
                      go pos
                  | _ -> raise Exit)
              | "hist" -> (
                  let name, ser = split2 rest in
                  match Histogram.Log.parse ser with
                  | Some h ->
                      hists := (name, h) :: !hists;
                      go pos
                  | None -> raise Exit)
              | "hold" -> (
                  match String.split_on_char ' ' rest with
                  | [ shard; owner; n ] ->
                      let n = int_of_string n in
                      if n < 0 || pos + n > len then raise Exit;
                      let prefix = String.sub body pos n in
                      hold := Some { shard = int_of_string shard; owner; prefix };
                      go (pos + n)
                  | _ -> raise Exit)
              | "events" -> (
                  (* The last line: the events live in the log. *)
                  match String.split_on_char ' ' rest with
                  | [ n; bytes ] ->
                      let n = int_of_string n and bytes = int_of_string bytes in
                      if n < 0 || bytes < 0 || pos < len then raise Exit;
                      events := Some (n, bytes)
                  | _ -> raise Exit)
              | _ -> raise Exit)
        in
        go pos;
        match (!amono, !awall, !events) with
        | Some anchor_mono_ns, Some anchor_wall_ns, Some (n, bytes)
          when !pid >= 0 ->
            Some
              ( {
                host = !host;
                pid = !pid;
                anchor_mono_ns;
                anchor_wall_ns;
                captured_wall_ns =
                  Option.value ~default:anchor_wall_ns !captured;
                dropped = !dropped;
                note = !note;
                counters = List.rev !counters;
                timers = List.rev !timers;
                histograms = List.rev !hists;
                hold = !hold;
                events = [];
              },
                n,
                bytes )
        | _ -> None
      with Exit | Failure _ -> None)
  | _ -> None

(* The events in the first [bytes] bytes of [log]: every frame's MD5
   checked, exactly [n] events in all. *)
let events_of_log ~n ~bytes log =
  let rec go pos acc =
    if pos = bytes then Some (List.concat (List.rev acc))
    else
      match String.index_from_opt log pos '\n' with
      | Some nl when nl < bytes -> (
          match String.split_on_char ' ' (String.sub log pos (nl - pos)) with
          | [ "batch"; len; md5 ] -> (
              match int_of_string_opt len with
              | Some len
                when len >= 0
                     && nl + 1 + len <= bytes
                     && String.equal md5
                          (Digest.to_hex (Digest.substring log (nl + 1) len))
                -> (
                  match Trace.parse_events (String.sub log (nl + 1) len) with
                  | Some evs -> go (nl + 1 + len) (evs :: acc)
                  | None -> None)
              | _ -> None)
          | _ -> None)
      | _ -> None
  in
  if String.length log < bytes then None
  else
    match go 0 [] with
    | Some evs when List.length evs = n -> Some evs
    | _ -> None

let with_events (snap, n, bytes) log =
  Option.map (fun events -> { snap with events }) (events_of_log ~n ~bytes log)

let of_payload ?log body =
  match (parse_record body, log) with
  | None, _ -> None
  | Some (snap, _, _), None -> Some snap
  | Some r, Some log -> with_events r log

(* ---- files ---- *)

let snapshot_path ~dir ~host ~pid =
  Filename.concat dir (Printf.sprintf "%s.%d.telem" host pid)

let events_path record = Filename.remove_extension record ^ ".events"
let is_telem_file name = Filename.check_suffix name ".telem"

let write_at fd off s =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = String.length s in
  let rec go pos =
    if pos < len then go (pos + Unix.write_substring fd s pos (len - pos))
  in
  go 0

let log_fd s =
  match s.log_fd with
  | Some fd -> fd
  | None ->
      Cache_dir.ensure s.dir;
      let fd =
        Unix.openfile
          (events_path (snapshot_path ~dir:s.dir ~host:s.s_host ~pid:s.s_pid))
          [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ]
          0o600
      in
      s.log_fd <- Some fd;
      fd

(* Write the events recorded since the session's previous publish to
   its log as one batch, then publish the header and [events N BYTES]
   counting them.  Telemetry must never take a sweep down: I/O failure
   is swallowed and reported as [false], and the batch is retried by
   the next publish. *)
let publish s ~note ?hold path =
  match
    let fd = log_fd s in
    let kind, evs, cursor = Trace.events_since s.log.cursor in
    let base = match kind with `Cleared -> no_log | `Appended -> s.log in
    let batch = if evs = [] then "" else frame evs in
    if batch <> "" then write_at fd base.bytes batch;
    let log =
      {
        cursor;
        bytes = base.bytes + String.length batch;
        count = base.count + List.length evs;
      }
    in
    (* A restart drops the earlier batches' bytes too. *)
    if kind = `Cleared then Unix.ftruncate fd log.bytes;
    s.log <- log;
    let held = match hold with Some h -> String.length h.prefix | None -> 0 in
    let b = Buffer.create (16_384 + held) in
    add_header b (capture_header ~note ~hold s);
    add_line b "events %d %d" log.count log.bytes;
    Sealed_file.seal b;
    Sealed_file.publish ~path b;
    String.length batch + Buffer.length b
  with
  | written ->
      Metrics.incr ~by:written m_bytes;
      true
  | exception (Sys_error _ | Unix.Unix_error _) -> false

let flush ?hold () =
  match active () with
  | None -> ()
  | Some s ->
      s.held <- hold;
      if
        publish s ~note:"" ?hold
          (snapshot_path ~dir:s.dir ~host:s.s_host ~pid:s.s_pid)
      then Metrics.incr m_flushes

(* The same record, with the failure as its note; it keeps the last
   flush's hold, so a dead holder's prefix stays salvageable. *)
let crash_dump ~reason =
  match active () with
  | None -> ()
  | Some s ->
      if
        publish s ~note:reason ?hold:s.held
          (snapshot_path ~dir:s.dir ~host:s.s_host ~pid:s.s_pid)
      then Metrics.incr m_crashes

(* Fatal signals (SIGTERM) dump the flight record, then restore the
   default disposition and re-deliver so the exit status still says
   "killed by signal" to whoever is waiting.  OCaml numbers signals
   its own way ([Sys.sigterm] is -11); the note uses POSIX's. *)
let install_signal_dump () =
  let dump_and_die signo =
    crash_dump ~reason:"fatal signal 15 (SIGTERM)";
    Sys.set_signal signo Sys.Signal_default;
    Unix.kill (Unix.getpid ()) signo
  in
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle dump_and_die)
  with Invalid_argument _ | Sys_error _ -> ()

(* ---- reading a fleet's snapshots ---- *)

(* The first [n] bytes of a file; [None] if it is shorter. *)
let read_prefix path n =
  if n = 0 then Some ""
  else
    match In_channel.with_open_bin path (fun ic -> really_input_string ic n) with
    | s -> Some s
    | exception (Sys_error _ | End_of_file) -> None

let read_file ?(header_only = false) path =
  match Option.bind (Sealed_file.read path) parse_record with
  | None -> None
  | Some (snap, _, _) when header_only -> Some snap
  | Some ((_, _, bytes) as r) ->
      Option.bind (read_prefix (events_path path) bytes) (with_events r)

let by_process a b = compare (a.host, a.pid) (b.host, b.pid)

let load_dir ?header_only d =
  match Sys.readdir d with
  | exception Sys_error _ -> ([], 0)
  | names ->
      let skipped = ref 0 in
      let snaps =
        Array.to_list names
        |> List.filter is_telem_file
        |> List.filter_map (fun name ->
               match read_file ?header_only (Filename.concat d name) with
               | Some s -> Some s
               | None ->
                   incr skipped;
                   Metrics.incr m_skipped;
                   None)
      in
      (List.sort by_process snaps, !skipped)

(* One snapshot per (host,pid) among snapshots gathered from several
   places: they are cumulative, so keep the latest capture — counters
   only grow, so the larger counter total wins, then the later capture
   instant.  Events are not weighed, so header-only and full reads pick
   the same snapshot. *)
let dedupe snaps =
  let rank s =
    (List.fold_left (fun acc (_, v) -> acc + v) 0 s.counters, s.captured_wall_ns)
  in
  let best : (string * int, snapshot) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = (s.host, s.pid) in
      match Hashtbl.find_opt best k with
      | Some prev when compare (rank prev) (rank s) >= 0 -> ()
      | _ -> Hashtbl.replace best k s)
    snaps;
  List.sort by_process (Hashtbl.fold (fun _ s acc -> s :: acc) best [])

let to_process s =
  {
    Trace.p_host = s.host;
    p_pid = s.pid;
    p_anchor_mono_ns = s.anchor_mono_ns;
    p_anchor_wall_ns = s.anchor_wall_ns;
    p_events = s.events;
    p_counters = s.counters;
    p_dropped = s.dropped;
  }

(* Merge a fleet directory into one Chrome trace: one record, so one
   process, per (host,pid), crashed or not. *)
let merge_dir d =
  let snaps, skipped = load_dir d in
  let procs = List.map to_process snaps in
  let body, events = Trace.render_merged procs in
  (body, events, List.length procs, skipped)

(* Fold foreign processes' counters and histograms into the live
   registries, so the coordinator's final [gat stats] / [GAT_STATS]
   output is fleet-wide.  The caller's own snapshot (same host+pid)
   is excluded — its numbers are already live. *)
let absorb_foreign snaps =
  let self_host = Unix.gethostname () and self_pid = Unix.getpid () in
  List.iter
    (fun s ->
      if not (s.host = self_host && s.pid = self_pid) then begin
        List.iter (fun (name, v) -> if v > 0 then Metrics.bump ~by:v name) s.counters;
        List.iter (fun (name, h) -> Metrics.merge_histogram name h) s.histograms
      end)
    snaps
