(* Fleet telemetry snapshots.

   A sharded sweep is many processes on many machines; each one's
   trace buffers, counters and latency histograms die with it unless
   they are made durable.  This module gives every coordinator/worker
   a single sealed, atomically-renamed record ([<host>.<pid>.telem])
   in the coordination directory, refreshed after every block (with
   the held shard's prefix; its mtime is the lease heartbeat) and on
   every exit path — so a SIGKILLed worker's last flush survives its
   death.  The crash flight recorder is the same payload under a
   [.crash] name, written from the fatal-error and fatal-signal
   paths.

   The payload is line-oriented text inside the standard
   {!Sealed_file} envelope: a header (host, pid, the monotonic→wall
   epoch anchor, dropped-event count, an optional crash note),
   then tagged lines — [counter NAME V], [timer NAME EVENTS NS],
   [hist NAME <sparse buckets>], [hold SHARD OWNER BYTES] and that many
   bytes of prefix — and finally [events N] and the raw
   trace events, one JSON object per line ({!Trace.serialize_events}),
   in flush batches: each flush serializes only what was recorded
   since the previous one and appends it to the lines it kept.  A
   corrupt or truncated snapshot fails the seal or the parse and is
   skipped and counted by readers, never trusted partially.

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

(* The session's event lines, serialized once each: every publish
   appends the batch recorded since the previous one and rewrites the
   rest verbatim.  Immutable, and swapped in with one field write, so
   a crash dump from a signal handler that interrupts a flush starts
   from a consistent state. *)
type event_lines = {
  cursor : Trace.cursor;
  chunks : string list;  (* one per non-empty batch, newest first *)
  count : int;
}

let no_lines = { cursor = Trace.start; chunks = []; count = 0 }

type session = {
  dir : string;
  s_host : string;
  s_pid : int;
  s_anchor_mono_ns : int64;
  s_anchor_wall_ns : int64;
  mutable lines : event_lines;
}

let session : session option ref = ref None
let lock = Mutex.create ()

(* Whether this module turned span recording on (as opposed to the CLI
   having registered a [--trace] output first); owned recording is
   turned back off when the session ends. *)
let trace_owned = ref false

let enable ~dir =
  let s =
    {
      dir;
      s_host = Unix.gethostname ();
      s_pid = Unix.getpid ();
      (* Sampled back-to-back: the pair is this process's epoch anchor. *)
      s_anchor_mono_ns = Metrics.now_ns ();
      s_anchor_wall_ns = Int64.of_float (Unix.gettimeofday () *. 1e9);
      lines = no_lines;
    }
  in
  Mutex.lock lock;
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

(* Everything but the events, which {!publish} serializes
   incrementally. *)
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

(* Every line up to, not including, [events N]. *)
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

let to_payload snap =
  let b = Buffer.create 4096 in
  add_header b snap;
  add_line b "events %d" (List.length snap.events);
  Buffer.add_string b (Trace.serialize_events snap.events);
  b

let split2 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let of_payload ?(header_only = false) body =
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
      let events = ref [] in
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
                  (* The last header line: the event lines run to the
                     end of the payload. *)
                  let n = int_of_string rest in
                  if n < 0 then raise Exit;
                  if not header_only then
                    match
                      Trace.parse_events (String.sub body pos (len - pos))
                    with
                    | Some evs when List.length evs = n -> events := evs
                    | _ -> raise Exit)
              | _ -> raise Exit)
        in
        go pos;
        match (!amono, !awall) with
        | Some anchor_mono_ns, Some anchor_wall_ns when !pid >= 0 ->
            Some
              {
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
                events = !events;
              }
        | _ -> None
      with Exit | Failure _ -> None)
  | _ -> None

(* ---- files ---- *)

let snapshot_path ~dir ~host ~pid =
  Filename.concat dir (Printf.sprintf "%s.%d.telem" host pid)

let crash_path ~dir ~host ~pid =
  Filename.concat dir (Printf.sprintf "%s.%d.crash" host pid)

let is_telem_file name = Filename.check_suffix name ".telem"
let is_crash_file name = Filename.check_suffix name ".crash"

(* Serialize only the events recorded since the session's previous
   publish, append them to its kept lines, and publish header + all
   lines.  Telemetry must never take a sweep down: I/O failure is
   swallowed and reported as [false]. *)
let publish s ~note ?hold path =
  let kind, evs, cursor = Trace.events_since s.lines.cursor in
  let prev = match kind with `Cleared -> no_lines | `Appended -> s.lines in
  let lines =
    if evs = [] then { prev with cursor }
    else
      {
        cursor;
        chunks = Trace.serialize_events evs :: prev.chunks;
        count = prev.count + List.length evs;
      }
  in
  s.lines <- lines;
  let chunks = List.rev lines.chunks in
  let held = match hold with Some h -> String.length h.prefix | None -> 0 in
  let b =
    Buffer.create
      (List.fold_left (fun n c -> n + String.length c) (16_384 + held) chunks)
  in
  add_header b (capture_header ~note ~hold s);
  add_line b "events %d" lines.count;
  List.iter (Buffer.add_string b) chunks;
  Sealed_file.seal b;
  match Sealed_file.publish ~path b with
  | () ->
      Metrics.incr ~by:(Buffer.length b) m_bytes;
      true
  | exception (Sys_error _ | Unix.Unix_error _) -> false

let flush ?hold () =
  match active () with
  | None -> ()
  | Some s ->
      if
        publish s ~note:"" ?hold
          (snapshot_path ~dir:s.dir ~host:s.s_host ~pid:s.s_pid)
      then Metrics.incr m_flushes

let crash_dump ~reason =
  match active () with
  | None -> ()
  | Some s ->
      if publish s ~note:reason (crash_path ~dir:s.dir ~host:s.s_host ~pid:s.s_pid)
      then Metrics.incr m_crashes

(* Fatal signals (SIGTERM) dump the flight record, then restore the
   default disposition and re-deliver so the exit status still says
   "killed by signal" to whoever is waiting. *)
let install_signal_dump () =
  let dump_and_die signo =
    crash_dump ~reason:(Printf.sprintf "fatal signal %d" signo);
    Sys.set_signal signo Sys.Signal_default;
    Unix.kill (Unix.getpid ()) signo
  in
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle dump_and_die)
  with Invalid_argument _ | Sys_error _ -> ()

(* ---- reading a fleet's snapshots ---- *)

let read_file ?header_only path =
  match Sealed_file.read path with
  | None -> None
  | Some body -> of_payload ?header_only body

let load_matching ?header_only pred d =
  match Sys.readdir d with
  | exception Sys_error _ -> ([], 0)
  | names ->
      let skipped = ref 0 in
      let snaps =
        Array.to_list names
        |> List.filter pred
        |> List.sort compare
        |> List.filter_map (fun name ->
               match read_file ?header_only (Filename.concat d name) with
               | Some s -> Some s
               | None ->
                   incr skipped;
                   Metrics.incr m_skipped;
                   None)
      in
      (snaps, !skipped)

let load_dir ?header_only d = load_matching ?header_only is_telem_file d
let load_crashes ?header_only d = load_matching ?header_only is_crash_file d

(* One snapshot per (host,pid): a process can leave both a periodic
   [.telem] and a [.crash] with overlapping ring buffers, and both are
   cumulative — keep the latest capture: counters only grow, so the
   larger counter total wins, then the later capture instant.  Events
   are not weighed, so header-only and full reads pick the same
   snapshot. *)
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
  Hashtbl.fold (fun _ s acc -> s :: acc) best []
  |> List.sort (fun a b -> compare (a.host, a.pid) (b.host, b.pid))

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

(* Merge a fleet directory into one Chrome trace.  Periodic snapshots
   and crash records both contribute; each (host,pid) appears once. *)
let merge_dir d =
  let telem, sk1 = load_dir d in
  let crash, sk2 = load_crashes d in
  let procs = List.map to_process (dedupe (telem @ crash)) in
  let body, events = Trace.render_merged procs in
  (body, events, List.length procs, sk1 + sk2)

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
