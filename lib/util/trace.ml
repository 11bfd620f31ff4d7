(* Span tracing with Chrome trace-event export.

   Design constraints, in order:

   - Bit-transparent: recording a span never changes what the traced
     code computes.  Spans wrap pure computations and re-raise
     exceptions with their backtraces.
   - Near-zero cost when off: every entry point starts with one
     [Atomic.get] on the [enabled] flag and returns to the traced
     thunk immediately; no clock is read, no buffer is touched, no
     domain-local state is created.
   - Domain-safe without a hot lock: each domain appends to its own
     bounded buffer (registered once, under a mutex, on the domain's
     first event) and the buffers are merged and sorted only at flush;
     incremental readers walk only the prefix added since their last
     read.
     Buffers survive their domain, so short-lived pool workers keep
     their spans.

   The export format is Chrome trace-event JSON (one object with a
   ["traceEvents"] array), loadable in Perfetto / chrome://tracing.
   Spans are emitted as complete ("X") events — balanced by
   construction — one track per domain, with args carrying variant
   coordinates; every registered metrics counter is appended as a
   counter ("C") sample at the end of the trace.  Output is
   deterministic modulo timestamps: span names are stable and events
   at equal timestamps sort by (time, tid, name). *)

let enabled = Atomic.make false
let on () = Atomic.get enabled

type arg = S of string | I of int | F of float

type event = {
  name : string;
  ph : char;  (* 'X' complete, 'i' instant, 'C' counter, 'M' metadata *)
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  args : (string * arg) list;
}

(* ---- per-domain ring buffers ---- *)

(* Bounded so a runaway trace cannot exhaust memory: past [capacity]
   events a domain drops new events and counts them. *)
let capacity = 4_000_000

type buf = {
  mutable events : event list;  (* newest first *)
  mutable count : int;
  mutable dropped : int;
}

let reg_lock = Mutex.create ()
let all_bufs : buf list ref = ref []

let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { events = []; count = 0; dropped = 0 } in
      Mutex.lock reg_lock;
      all_bufs := b :: !all_bufs;
      Mutex.unlock reg_lock;
      b)

let emit ev =
  let b = Domain.DLS.get buf_key in
  if b.count >= capacity then b.dropped <- b.dropped + 1
  else begin
    b.events <- ev :: b.events;
    b.count <- b.count + 1
  end

let tid () = (Domain.self () :> int)

let collected () =
  Mutex.lock reg_lock;
  let n = List.fold_left (fun acc b -> acc + b.count) 0 !all_bufs in
  Mutex.unlock reg_lock;
  n

let dropped () =
  Mutex.lock reg_lock;
  let n = List.fold_left (fun acc b -> acc + b.dropped) 0 !all_bufs in
  Mutex.unlock reg_lock;
  n

let clear () =
  Mutex.lock reg_lock;
  List.iter
    (fun b ->
      b.events <- [];
      b.count <- 0;
      b.dropped <- 0)
    !all_bufs;
  Mutex.unlock reg_lock

(* ---- recording ---- *)

let span ?(args = []) name f =
  if not (on ()) then f ()
  else begin
    let t0 = Metrics.now_ns () in
    let finish () =
      emit
        {
          name;
          ph = 'X';
          ts_ns = t0;
          dur_ns = Int64.sub (Metrics.now_ns ()) t0;
          tid = tid ();
          args;
        }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let instant ?(args = []) name =
  if on () then
    emit
      {
        name;
        ph = 'i';
        ts_ns = Metrics.now_ns ();
        dur_ns = 0L;
        tid = tid ();
        args;
      }

(* ---- Chrome trace-event JSON export ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_args b args =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape k));
      match v with
      | S s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (json_escape s))
      | I n -> Buffer.add_string b (string_of_int n)
      | F x -> Buffer.add_string b (Printf.sprintf "%.6g" x))
    args;
  Buffer.add_char b '}'

(* Timestamps are microseconds in the trace-event format; rebase to
   the earliest event so numbers stay small and runs line up at 0. *)
let us_of_ns ~t0 ns = Int64.to_float (Int64.sub ns t0) /. 1e3

let add_event b ~t0 ~pid ev =
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"gat\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f"
       (json_escape ev.name) ev.ph pid ev.tid (us_of_ns ~t0 ev.ts_ns));
  if ev.ph = 'X' then
    Buffer.add_string b
      (Printf.sprintf ",\"dur\":%.3f" (Int64.to_float ev.dur_ns /. 1e3));
  if ev.ph = 'i' then Buffer.add_string b ",\"s\":\"t\"";
  if ev.args <> [] then begin
    Buffer.add_char b ',';
    add_args b ev.args
  end;
  Buffer.add_char b '}'

let registered () =
  Mutex.lock reg_lock;
  let bufs = !all_bufs in
  Mutex.unlock reg_lock;
  bufs

let sort_events evs =
  List.sort
    (fun a b ->
      match Int64.compare a.ts_ns b.ts_ns with
      | 0 -> ( match compare a.tid b.tid with 0 -> compare a.name b.name | c -> c)
      | c -> c)
    evs

let merged_events () =
  sort_events (List.concat_map (fun b -> List.rev b.events) (registered ()))

(* ---- raw event serialization (telemetry snapshots) ---- *)

(* One JSON object per line, nanosecond fields kept raw so merging can
   re-anchor clocks exactly.  Parsed back with the validator's JSON
   reader below; a malformed line poisons the whole parse (snapshots
   are sealed, so partial writes never reach us). *)

let serialize_event b ev =
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"%c\",\"ts_ns\":%Ld,\"dur_ns\":%Ld,\"tid\":%d,"
       (json_escape ev.name) ev.ph ev.ts_ns ev.dur_ns ev.tid);
  add_args b ev.args;
  Buffer.add_char b '}'

let serialize_events evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      serialize_event b ev;
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b

let events () = merged_events ()

(* ---- incremental reads (telemetry flushes) ---- *)

(* A cursor remembers, per buffer, the list head it last returned.
   Buffers only grow by consing onto that head, so what is new is the
   prefix in front of it — found by physical equality, without locking
   the buffers and without touching older events.  [clear] drops the
   head, so a buffer whose remembered head no longer appears was
   cleared; the cursor then hands back everything buffered, and its
   caller starts over. *)
type cursor = (buf * event list) list

let start : cursor = []

let events_since (seen : cursor) =
  let heads = List.map (fun b -> (b, b.events)) (registered ()) in
  (* Oldest-first prefix of [cur] up to [old]; [None] if [old] is gone. *)
  let prefix old cur =
    let rec go acc l =
      if l == old then Some acc
      else match l with [] -> None | ev :: tl -> go (ev :: acc) tl
    in
    go [] cur
  in
  let fresh =
    List.map
      (fun (b, cur) ->
        prefix (Option.value ~default:[] (List.assq_opt b seen)) cur)
      heads
  in
  if List.exists Option.is_none fresh then
    let all = List.concat_map (fun (_, cur) -> List.rev cur) heads in
    (`Cleared, sort_events all, heads)
  else (`Appended, sort_events (List.concat_map Option.get fresh), heads)

(* ---- multi-process merge ---- *)

type process = {
  p_host : string;
  p_pid : int;
  p_anchor_mono_ns : int64;  (* monotonic clock at the anchor instant *)
  p_anchor_wall_ns : int64;  (* wall clock (ns since epoch) at the same instant *)
  p_events : event list;
  p_counters : (string * int) list;
  p_dropped : int;
}

(* Fleet merge: one Chrome pid per (host,pid), domain tracks under
   each, clocks aligned by mapping every event through its process's
   epoch anchor (wall = anchor_wall + (ts - anchor_mono)) and rebasing
   to the earliest event in the fleet.  Counters are summed across
   processes and emitted once as final 'C' samples. *)
let render_merged procs =
  let procs =
    List.sort (fun a b -> compare (a.p_host, a.p_pid) (b.p_host, b.p_pid)) procs
  in
  let wall_of p ts = Int64.add p.p_anchor_wall_ns (Int64.sub ts p.p_anchor_mono_ns) in
  let t0 =
    List.fold_left
      (fun acc p ->
        List.fold_left (fun acc ev -> Int64.min acc (wall_of p ev.ts_ns)) acc p.p_events)
      Int64.max_int procs
  in
  let t0 = if t0 = Int64.max_int then 0L else t0 in
  let t_end =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc ev -> Int64.(max acc (add (wall_of p ev.ts_ns) ev.dur_ns)))
          acc p.p_events)
      t0 procs
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  let add_pid_event pid ev =
    sep ();
    add_event b ~t0 ~pid ev
  in
  let n_events = ref 0 in
  List.iteri
    (fun i p ->
      let pid = i + 1 in
      add_pid_event pid
        {
          name = "process_name";
          ph = 'M';
          ts_ns = t0;
          dur_ns = 0L;
          tid = 0;
          args = [ ("name", S (Printf.sprintf "gat %s:%d" p.p_host p.p_pid)) ];
        };
      let tids = List.sort_uniq compare (List.map (fun ev -> ev.tid) p.p_events) in
      List.iter
        (fun t ->
          add_pid_event pid
            {
              name = "thread_name";
              ph = 'M';
              ts_ns = t0;
              dur_ns = 0L;
              tid = t;
              args = [ ("name", S (Printf.sprintf "domain-%d" t)) ];
            })
        tids;
      let evs =
        sort_events
          (List.map (fun ev -> { ev with ts_ns = wall_of p ev.ts_ns }) p.p_events)
      in
      List.iter
        (fun ev ->
          incr n_events;
          add_pid_event pid ev)
        evs)
    procs;
  (* Fleet-wide counter totals: bucket-wise sums over every process's
     snapshot, one final sample per name on the first process. *)
  let totals : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace totals name
            (v + Option.value ~default:0 (Hashtbl.find_opt totals name)))
        p.p_counters)
    procs;
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) totals []) in
  List.iter
    (fun name ->
      add_pid_event 1
        {
          name;
          ph = 'C';
          ts_ns = t_end;
          dur_ns = 0L;
          tid = 0;
          args = [ ("value", I (Hashtbl.find totals name)) ];
        })
    names;
  Buffer.add_string b "\n]}\n";
  (Buffer.contents b, !n_events)

(* This process alone: a fleet of one, its monotonic clock standing in
   for the wall clock. *)
let render () =
  render_merged
    [
      {
        p_host = Unix.gethostname ();
        p_pid = Unix.getpid ();
        p_anchor_mono_ns = 0L;
        p_anchor_wall_ns = 0L;
        p_events = events ();
        p_counters = Metrics.counters_snapshot ();
        p_dropped = dropped ();
      };
    ]

(* ---- session control ---- *)

let out_file = ref None

let enable_to path =
  Mutex.lock reg_lock;
  out_file := Some path;
  Mutex.unlock reg_lock;
  Atomic.set enabled true

let enable () = Atomic.set enabled true

let disable () =
  Atomic.set enabled false;
  Mutex.lock reg_lock;
  out_file := None;
  Mutex.unlock reg_lock

let out_path () =
  Mutex.lock reg_lock;
  let p = !out_file in
  Mutex.unlock reg_lock;
  p

let finish () =
  match out_path () with
  | None ->
      Atomic.set enabled false;
      None
  | Some p ->
      let body, events = render () in
      Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc body);
      disable ();
      clear ();
      Some (p, events)

(* ---- validation (the test checker) ---- *)

(* A minimal JSON reader — just enough to check a trace file without
   pulling in a JSON dependency.  Numbers are floats, objects are
   assoc lists; input size is bounded by the trace itself. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\x00' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
                 if !pos + 4 >= n then fail "short unicode escape";
                 (* Decode to '?' outside ASCII: the checker never
                    compares escaped text. *)
                 let code =
                   int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4)
                 in
                 (match code with
                 | Some c when c < 128 -> Buffer.add_char b (Char.chr c)
                 | Some _ -> Buffer.add_char b '?'
                 | None -> fail "bad unicode escape");
                 pos := !pos + 4
             | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad_json msg -> Error msg

(* Inverse of [serialize_events]: one JSON object per line.  Any
   malformed line fails the whole parse — snapshot readers treat that
   as a corrupt snapshot and skip it. *)
let parse_events s =
  let field k = function Obj fields -> List.assoc_opt k fields | _ -> None in
  let event_of_json j =
    let str k = match field k j with Some (Str s) -> Some s | _ -> None in
    let num k = match field k j with Some (Num f) -> Some f | _ -> None in
    let args =
      match field "args" j with
      | Some (Obj fields) ->
          List.map
            (fun (k, v) ->
              ( k,
                match v with
                | Str s -> S s
                | Num f when Float.is_integer f && Float.abs f < 1e15 ->
                    I (int_of_float f)
                | Num f -> F f
                | _ -> S "?" ))
            fields
      | _ -> []
    in
    match (str "name", str "ph", num "ts_ns", num "dur_ns", num "tid") with
    | Some name, Some ph, Some ts, Some dur, Some tid when String.length ph = 1
      ->
        Some
          {
            name;
            ph = ph.[0];
            ts_ns = Int64.of_float ts;
            dur_ns = Int64.of_float dur;
            tid = int_of_float tid;
            args;
          }
    | _ -> None
  in
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | "" :: rest -> go acc rest
    | line :: rest -> (
        match parse_json line with
        | Error _ -> None
        | Ok j -> (
            match event_of_json j with
            | None -> None
            | Some ev -> go (ev :: acc) rest))
  in
  go [] lines

type validation = {
  events : int;  (** Span/instant events (metadata and counters excluded). *)
  tracks : int;  (** Distinct domain tracks carrying events. *)
  pids : int;  (** Distinct process tracks carrying span/instant events. *)
  counters : string list;  (** Names of counter samples, sorted. *)
  span_names : string list;  (** Distinct span names, sorted. *)
}

let validate_string ?(require = []) body =
  match parse_json body with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok json -> (
      let field k = function
        | Obj fields -> List.assoc_opt k fields
        | _ -> None
      in
      match field "traceEvents" json with
      | Some (Arr events) -> (
          let err = ref None in
          let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
          let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
          let tids = Hashtbl.create 8 in
          let pids = Hashtbl.create 8 in
          let counters = Hashtbl.create 16 in
          let span_names = Hashtbl.create 32 in
          let n_events = ref 0 in
          List.iteri
            (fun i ev ->
              let name =
                match field "name" ev with Some (Str s) -> Some s | _ -> None
              in
              let ph =
                match field "ph" ev with
                | Some (Str s) when String.length s = 1 -> Some s.[0]
                | _ -> None
              in
              let num k =
                match field k ev with Some (Num f) -> Some f | _ -> None
              in
              match (name, ph, num "ts", num "tid") with
              | None, _, _, _ -> fail "event %d: missing name" i
              | _, None, _, _ -> fail "event %d: missing ph" i
              | _, _, None, _ -> fail "event %d: missing ts" i
              | _, _, _, None -> fail "event %d: missing tid" i
              | Some name, Some ph, Some ts, Some tid -> (
                  if ts < 0.0 then fail "event %d: negative ts" i;
                  let itid = int_of_float tid in
                  let ipid =
                    match num "pid" with Some p -> int_of_float p | None -> 0
                  in
                  let mark_track () =
                    Hashtbl.replace tids (ipid, itid) ();
                    Hashtbl.replace pids ipid ()
                  in
                  let stack_of key =
                    match Hashtbl.find_opt stacks key with
                    | Some s -> s
                    | None ->
                        let s = ref [] in
                        Hashtbl.replace stacks key s;
                        s
                  in
                  match ph with
                  | 'M' -> ()
                  | 'C' ->
                      (* Keep the sample's value so [require] can
                         assert thresholds ("pool.maps>0"), not
                         just presence. *)
                      let value =
                        match field "args" ev with
                        | Some (Obj fields) -> (
                            match List.assoc_opt "value" fields with
                            | Some (Num v) -> v
                            | _ -> 0.0)
                        | _ -> 0.0
                      in
                      Hashtbl.replace counters name value
                  | 'X' -> (
                      incr n_events;
                      mark_track ();
                      Hashtbl.replace span_names name ();
                      match num "dur" with
                      | Some d when d >= 0.0 -> ()
                      | Some _ -> fail "event %d (%s): negative dur" i name
                      | None -> fail "event %d (%s): X without dur" i name)
                  | 'B' ->
                      incr n_events;
                      mark_track ();
                      Hashtbl.replace span_names name ();
                      let s = stack_of (ipid, itid) in
                      s := name :: !s
                  | 'E' -> (
                      incr n_events;
                      let s = stack_of (ipid, itid) in
                      match !s with
                      | top :: rest ->
                          if top <> name && name <> "" then
                            fail
                              "event %d: E %S does not match open span %S on tid %d"
                              i name top itid
                          else s := rest
                      | [] -> fail "event %d: E %S with no open span on tid %d" i name itid)
                  | 'i' ->
                      incr n_events;
                      mark_track ()
                  | c -> fail "event %d: unknown phase %C" i c))
            events;
          Hashtbl.iter
            (fun (_, tid) s ->
              match !s with
              | [] -> ()
              | top :: _ ->
                  if !err = None then
                    err :=
                      Some
                        (Printf.sprintf "unclosed span %S on tid %d" top tid))
            stacks;
          let counter_names =
            List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) counters [])
          in
          (* A requirement is a bare counter name (presence) or a
             comparison "name>K" / "name>=K" / "name=K" against the
             latest sample, with integer K. *)
          let parse_requirement want =
            let len = String.length want in
            match String.index_opt want '>' with
            | Some i when i + 1 < len && want.[i + 1] = '=' ->
                Some (String.sub want 0 i, `Ge, String.sub want (i + 2) (len - i - 2))
            | Some i ->
                Some (String.sub want 0 i, `Gt, String.sub want (i + 1) (len - i - 1))
            | None -> (
                match String.index_opt want '=' with
                | Some i ->
                    Some
                      (String.sub want 0 i, `Eq, String.sub want (i + 1) (len - i - 1))
                | None -> None)
          in
          List.iter
            (fun want ->
              if !err = None then
                match parse_requirement want with
                | None ->
                    if not (Hashtbl.mem counters want) then
                      err :=
                        Some (Printf.sprintf "required counter %S absent" want)
                | Some (cname, cmp, bound) -> (
                    match (int_of_string_opt bound, cname) with
                    | None, _ | _, "" ->
                        err :=
                          Some
                            (Printf.sprintf
                               "bad requirement %S: expected NAME, NAME>INT, \
                                NAME>=INT or NAME=INT"
                               want)
                    | Some k, _ -> (
                        match Hashtbl.find_opt counters cname with
                        | None ->
                            err :=
                              Some
                                (Printf.sprintf "required counter %S absent"
                                   cname)
                        | Some v ->
                            let fk = float_of_int k in
                            let ok, op =
                              match cmp with
                              | `Gt -> (v > fk, ">")
                              | `Ge -> (v >= fk, ">=")
                              | `Eq -> (v = fk, "=")
                            in
                            if not ok then
                              err :=
                                Some
                                  (Printf.sprintf
                                     "counter %S is %g, required %s %d" cname v
                                     op k))))
            require;
          match !err with
          | Some msg -> Error msg
          | None ->
              Ok
                {
                  events = !n_events;
                  tracks = Hashtbl.length tids;
                  pids = Hashtbl.length pids;
                  counters = counter_names;
                  span_names =
                    List.sort compare
                      (Hashtbl.fold (fun k () acc -> k :: acc) span_names []);
                })
      | _ -> Error "missing traceEvents array")

let validate_file ?require path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> validate_string ?require body
  | exception Sys_error e -> Error e
