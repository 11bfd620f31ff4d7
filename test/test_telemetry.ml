(* Tests for the fleet observability layer: log-bucketed latency
   histograms (bucket scheme, merge determinism, wire form), telemetry
   snapshot payload round-trips, sealed-snapshot corruption handling
   (skipped-and-counted), the multi-process trace merge with epoch-
   anchor clock alignment, and the [gat monitor] table. *)

module H = Gat_util.Histogram.Log
module Metrics = Gat_util.Metrics
module Trace = Gat_util.Trace
module Telemetry = Gat_util.Telemetry
module Lease = Gat_util.Lease
module Monitor = Gat_tuner.Monitor

(* Private scratch cache directory; never the user's ~/.cache/gat. *)
let () =
  Unix.putenv "GAT_CACHE_DIR"
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "gat-test-telemetry-%d" (Unix.getpid ())))

let temp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-test-telem-%s-%d" name (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* This process's record in [d]. *)
let own_record d =
  Telemetry.snapshot_path ~dir:d ~host:(Unix.gethostname ())
    ~pid:(Unix.getpid ())

(* A session in [d] that records spans: a session never turns span
   recording on itself, so a traced process is the only one with an
   events log.  [end_traced] ends both. *)
let traced_session d =
  Telemetry.disable ();
  Trace.enable ();
  Telemetry.enable ~dir:d

let end_traced () =
  Telemetry.disable ();
  Trace.disable ()

(* The files in [d] with extension [ext]. *)
let files_with d ext =
  List.filter (fun f -> Filename.check_suffix f ext) (Array.to_list (Sys.readdir d))

(* A hand-built snapshot on disk: its events log, then its record. *)
let publish_snapshot path s =
  let b, log = Telemetry.to_payload s in
  write_file (Telemetry.events_path path) log;
  Gat_util.Sealed_file.seal b;
  Gat_util.Sealed_file.publish ~path b

let roundtrip s =
  let b, log = Telemetry.to_payload s in
  Telemetry.of_payload ~log (Buffer.contents b)

let file_size path = (Unix.stat path).Unix.st_size

(* The record's [events N BYTES] line. *)
let events_line path =
  match Gat_util.Sealed_file.read path with
  | None -> Alcotest.failf "%s: record did not unseal" path
  | Some body -> (
      match List.rev (String.split_on_char '\n' body) with
      | "" :: last :: _ -> (
          match String.split_on_char ' ' last with
          | [ "events"; n; bytes ] -> (int_of_string n, int_of_string bytes)
          | _ -> Alcotest.failf "%s: last line %S" path last)
      | _ -> Alcotest.failf "%s: no events line" path)

let first_index hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.failf "%S not found" needle
    else if String.sub hay i nn = needle then i
    else go (i + 1)
  in
  go 0

(* ---- histogram bucket scheme ---- *)

let test_bucket_scheme () =
  (* Exact buckets below 8 ns. *)
  for v = 0 to 7 do
    Alcotest.(check int) "small bucket is identity" v (H.bucket_of_ns v);
    Alcotest.(check int) "small lower edge" v (H.bucket_lower v)
  done;
  (* The lower edge always bounds the value from below, and indices
     stay in range. *)
  List.iter
    (fun v ->
      let i = H.bucket_of_ns v in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < H.buckets);
      Alcotest.(check bool)
        (Printf.sprintf "lower edge <= %d" v)
        true
        (H.bucket_lower i <= v))
    [ 8; 9; 100; 1_000; 65_537; 1_000_000; 123_456_789; max_int / 2 ];
  (* Negative samples clamp to bucket 0. *)
  let h = H.create () in
  H.record h (-5);
  Alcotest.(check int) "negative clamps" 1 (H.counts h).(0)

let prop_bucket_monotone =
  QCheck.Test.make ~count:300 ~name:"bucket index is monotone in the value"
    QCheck.(pair (int_bound 10_000_000) (int_bound 10_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      H.bucket_of_ns lo <= H.bucket_of_ns hi)

(* ---- histogram merge: order-invariant, totals preserved ---- *)

let prop_merge_order_invariant =
  QCheck.Test.make ~count:100
    ~name:"merge is order-invariant and preserves totals"
    QCheck.(
      list_of_size
        Gen.(int_range 1 6)
        (list_of_size Gen.(int_range 0 20) (int_bound 2_000_000)))
    (fun samples ->
      let hist_of xs =
        let h = H.create () in
        List.iter (H.record h) xs;
        h
      in
      let hists = List.map hist_of samples in
      let fold l = List.fold_left H.merge (H.create ()) l in
      let fwd = fold hists and rev = fold (List.rev hists) in
      let all = List.concat samples in
      H.counts fwd = H.counts rev
      && H.total fwd = List.length all
      && H.sum_ns fwd = List.fold_left ( + ) 0 all)

let test_percentiles () =
  let h = H.create () in
  List.iter (H.record h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "p50 of 1..5" 3 (H.percentile_ns h 0.5);
  Alcotest.(check int) "p100 of 1..5" 5 (H.percentile_ns h 1.0);
  Alcotest.(check bool) "monotone in q" true
    (H.percentile_ns h 0.1 <= H.percentile_ns h 0.9);
  Alcotest.(check int) "empty histogram" 0 (H.percentile_ns (H.create ()) 0.5)

(* ---- snapshot payload round-trip ---- *)

let sample_snapshot ?(host = "nodeA") ?(pid = 7) ?(note = "") ?hold () =
  let h = H.create () in
  List.iter (H.record h) [ 100; 200; 300 ];
  {
    Telemetry.host;
    pid;
    anchor_mono_ns = 123L;
    anchor_wall_ns = 456_000L;
    captured_wall_ns = 789_000L;
    dropped = 2;
    note;
    counters = [ ("sweep.points", 3); ("zero", 0) ];
    histograms = [ ("sweep.compile", h) ];
    hold;
    events =
      [
        {
          Trace.name = "e1";
          ph = 'X';
          ts_ns = 10L;
          dur_ns = 5L;
          tid = 1;
          args = [ ("i", Trace.I 3) ];
        };
        {
          Trace.name = "e2";
          ph = 'i';
          ts_ns = 20L;
          dur_ns = 0L;
          tid = 0;
          args = [ ("s", Trace.S "x") ];
        };
      ];
  }

let check_snapshot_eq a b =
  Alcotest.(check string) "host" a.Telemetry.host b.Telemetry.host;
  Alcotest.(check int) "pid" a.Telemetry.pid b.Telemetry.pid;
  Alcotest.(check int64) "anchor_mono" a.Telemetry.anchor_mono_ns
    b.Telemetry.anchor_mono_ns;
  Alcotest.(check int64) "anchor_wall" a.Telemetry.anchor_wall_ns
    b.Telemetry.anchor_wall_ns;
  Alcotest.(check int64) "captured_wall" a.Telemetry.captured_wall_ns
    b.Telemetry.captured_wall_ns;
  Alcotest.(check int) "dropped" a.Telemetry.dropped b.Telemetry.dropped;
  Alcotest.(check string) "note" a.Telemetry.note b.Telemetry.note;
  Alcotest.(check (list (pair string int)))
    "counters" a.Telemetry.counters b.Telemetry.counters;
  Alcotest.(check (list string))
    "histogram names"
    (List.map fst a.Telemetry.histograms)
    (List.map fst b.Telemetry.histograms);
  List.iter2
    (fun (_, ha) (_, hb) ->
      Alcotest.(check bool) "histogram counts" true (H.counts ha = H.counts hb);
      Alcotest.(check int) "histogram sum" (H.sum_ns ha) (H.sum_ns hb))
    a.Telemetry.histograms b.Telemetry.histograms;
  Alcotest.(check bool) "hold" true (a.Telemetry.hold = b.Telemetry.hold);
  Alcotest.(check bool) "events" true (a.Telemetry.events = b.Telemetry.events)

let test_payload_roundtrip () =
  let snap = sample_snapshot () in
  (match roundtrip snap with
  | None -> Alcotest.fail "payload did not parse"
  | Some got -> check_snapshot_eq snap got);
  (* A hold section round-trips byte for byte, however its prefix
     text looks: lines that read like tags are skipped by length. *)
  let hold =
    {
      Telemetry.shard = 3;
      owner = "nodeA:7:1f";
      prefix = "gat-sweep-ckpt 2\nevents 9\nhold 1 x 2\nno newline";
    }
  in
  let held = sample_snapshot ~hold () in
  (match roundtrip held with
  | None -> Alcotest.fail "held payload did not parse"
  | Some got -> check_snapshot_eq held got);
  (* Crash notes survive the round-trip too. *)
  let crash = sample_snapshot ~note:"internal error: boom" () in
  match roundtrip crash with
  | None -> Alcotest.fail "crash payload did not parse"
  | Some got -> Alcotest.(check string) "note" crash.Telemetry.note got.Telemetry.note

(* First-occurrence string replace, enough for doctoring payloads. *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i = if i + m > n then None else if String.sub s i m = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_payload_rejects_malformed () =
  let b, log = Telemetry.to_payload (sample_snapshot ()) in
  let good = Buffer.contents b in
  let cases =
    [
      ("garbage", "not a payload\n");
      ("empty", "");
      ("unknown tag", good ^ "mystery line\n");
      ( "truncated events",
        (* Claim one more event than the log carries. *)
        replace ~sub:"events 2 " ~by:"events 3 " good );
      ( "hold overruns the payload",
        replace ~sub:"events 2 " ~by:"hold 0 o 100000\nevents 2 " good );
      ( "negative hold length",
        replace ~sub:"events 2 " ~by:"hold 0 o -1\nevents 2 " good );
      ( "20-digit anchor",
        replace ~sub:"anchor_wall_ns 456000"
          ~by:"anchor_wall_ns 10000000000000000000" good );
      ( "19-digit anchor past max_int",
        replace ~sub:"anchor_wall_ns 456000"
          ~by:"anchor_wall_ns 9999999999999999999" good );
      ("header line missing", replace ~sub:"dropped 2\n" ~by:"" good);
      ("events line missing", replace ~sub:"events 2 " ~by:"" good);
      ("format 1 header", replace ~sub:"gat-telem 2\n" ~by:"gat-telem 1\n" good);
      ("timer line", replace ~sub:"events 2 " ~by:"timer t 4 5000\nevents 2 " good);
    ]
  in
  List.iter
    (fun (name, body) ->
      Alcotest.(check bool) name true (Telemetry.of_payload ~log body = None))
    cases

(* A histogram's wire form is the record's [hist] line: it round-trips
   through the payload alone, and a malformed one fails the record. *)
let prop_serialize_roundtrip =
  QCheck.Test.make ~count:100 ~name:"serialize/parse round-trips"
    QCheck.(list_of_size Gen.(int_range 0 30) (int_bound 5_000_000))
    (fun xs ->
      let h = H.create () in
      List.iter (H.record h) xs;
      let snap =
        { (sample_snapshot ()) with Telemetry.histograms = [ ("h", h) ]; events = [] }
      in
      match roundtrip snap with
      | Some { Telemetry.histograms = [ ("h", h') ]; _ } ->
          H.counts h = H.counts h' && H.sum_ns h = H.sum_ns h'
      | _ -> false)

let test_parse_rejects_garbage () =
  let b, log = Telemetry.to_payload (sample_snapshot ()) in
  let good = Buffer.contents b in
  List.iter
    (fun (what, line) ->
      let body = replace ~sub:"events 2 " ~by:(line ^ "\nevents 2 ") good in
      Alcotest.(check bool) ("hist " ^ what) true
        (Telemetry.of_payload ~log body = None))
    [
      ("without a sum", "hist x");
      ("with a negative sum", "hist x -1 3 1");
      ("with an index past the buckets", "hist x 9 256 1");
      ("with a negative index", "hist x 9 -1 1");
      ("with a negative count", "hist x 9 3 -1");
      ("with an odd pair count", "hist x 9 3 1 4");
      ("with a non-integer field", "hist x 9 3 one");
      ("in the old sparse form", "hist x sum=9 3:1");
    ]

(* Whole-snapshot equality; histograms compare by counts and sum. *)
let snapshot_equal a b =
  let strip s = { s with Telemetry.histograms = [] } in
  let hist (n, h) = (n, H.counts h, H.sum_ns h) in
  strip a = strip b
  && List.map hist a.Telemetry.histograms = List.map hist b.Telemetry.histograms

let prop_payload_roundtrip =
  let open QCheck.Gen in
  let word = string_size ~gen:(oneofl [ 'a'; 'z'; '.'; '_'; '0'; ':' ]) (int_range 1 12) in
  let line = string_size ~gen:(char_range ' ' '~') (int_range 0 40) in
  let ns =
    map Int64.of_int
      (oneof [ int_bound 1_000_000; int_range 1_000_000_000_000_000_000 max_int ])
  in
  (* Every duration rides in the record as a [hist] line: empty
     histograms, one-sample ones, samples up to 2^50 ns. *)
  let hist =
    map
      (fun xs ->
        let h = H.create () in
        List.iter (H.record h) xs;
        h)
      (list_size (int_bound 30)
         (oneof [ int_bound 5_000_000; int_bound (1 lsl 50) ]))
  in
  let hold =
    map3
      (fun shard owner lines ->
        { Telemetry.shard; owner; prefix = String.concat "\n" lines })
      (int_bound 64) word
      (list_size (int_range 0 30) line)
  in
  let snapshot =
    map
      (fun ((host, pid, mono, wall), (captured, dropped, note), (counters, histograms), (hold, events)) ->
        {
          Telemetry.host;
          pid;
          anchor_mono_ns = mono;
          anchor_wall_ns = wall;
          captured_wall_ns = captured;
          dropped;
          note;
          counters;
          histograms;
          hold;
          events;
        })
      (quad
         (quad line (int_bound 4_000_000) ns ns)
         (triple ns nat line)
         (pair
            (list_size (int_bound 6) (pair word int))
            (list_size (int_bound 4) (pair word hist)))
         (pair (opt hold) (oneofl [ []; (sample_snapshot ()).Telemetry.events ])))
  in
  QCheck.Test.make ~count:300
    ~name:"record payload round-trips (notes with spaces, many-line holds)"
    (QCheck.make snapshot)
    (fun snap ->
      match roundtrip snap with
      | Some got -> snapshot_equal snap got
      | None -> false)

(* ---- golden bytes ----

   A record and its events log written from fixed inputs — a crash
   note, a hold whose prefix spans lines that read like tags, and a
   19-digit wall-clock anchor — have pinned MD5s, and the copies in
   [fixtures/entries/] read back whole: a codec change that moved one
   byte would orphan every record a running fleet left. *)

let golden_snapshot =
  let h = H.create () in
  List.iter (H.record h) [ 1_000; 2_000; 5_000_000 ];
  {
    Telemetry.host = "fixture-host";
    pid = 4242;
    anchor_mono_ns = 987_654_321L;
    anchor_wall_ns = 1_760_000_000_123_456_789L;
    captured_wall_ns = 1_760_000_002_500_000_000L;
    dropped = 1;
    note = "sweep interrupted at 16/32 points";
    counters = [ ("sweep.points", 16); ("shard.salvaged_points", 0) ];
    histograms = [ ("sweep.compile", h) ];
    hold =
      Some
        {
          Telemetry.shard = 1;
          owner = "fixture-host:4242:1a2b3c";
          prefix = "gat-sweep-ckpt 2\nevents 9 9\nhold 1 x 2\nlast line\n";
        };
    events =
      [
        {
          Trace.name = "sweep.block";
          ph = 'X';
          ts_ns = 1_000L;
          dur_ns = 500L;
          tid = 0;
          args = [ ("shard", Trace.I 1) ];
        };
        {
          Trace.name = "shard.reclaim";
          ph = 'i';
          ts_ns = 2_000L;
          dur_ns = 0L;
          tid = 1;
          args = [ ("who", Trace.S "fixture") ];
        };
      ];
  }

let golden_telem_md5 = "6ae78380d34cfd5eb9d1021d7f050e9b"
let golden_events_md5 = "5876a02d71c4ad159841e6587866ebbb"

let test_golden_bytes () =
  let b, log = Telemetry.to_payload golden_snapshot in
  Gat_util.Sealed_file.seal b;
  Alcotest.(check string) "record bytes" golden_telem_md5
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  Alcotest.(check string) "log bytes" golden_events_md5
    (Digest.to_hex (Digest.string log));
  let fixture = "fixtures/entries/golden.telem" in
  Alcotest.(check string) "record fixture" golden_telem_md5
    (Digest.to_hex (Digest.file fixture));
  Alcotest.(check string) "log fixture" golden_events_md5
    (Digest.to_hex (Digest.file (Telemetry.events_path fixture)));
  (match Telemetry.read_file fixture with
  | None -> Alcotest.fail "record fixture does not read back"
  | Some got ->
      check_snapshot_eq golden_snapshot got;
      Alcotest.(check int64) "19-digit anchor" 1_760_000_000_123_456_789L
        got.Telemetry.anchor_wall_ns);
  match Telemetry.read_file ~header_only:true fixture with
  | None -> Alcotest.fail "record fixture does not read header-only"
  | Some got -> check_snapshot_eq { golden_snapshot with events = [] } got

(* ---- the coordinator's fleet-wide registry ---- *)

(* A foreign record's durations join the live registry as its counters
   do — a worker's pool busy time shows in the coordinator's
   [GAT_STATS] — and this process's own record is skipped. *)
let test_absorb_foreign_durations () =
  let busy () =
    match
      List.find_opt
        (fun (n, _, _) -> n = "pool.worker.busy")
        (Metrics.timers_snapshot ())
    with
    | Some (_, k, s) -> (k, s)
    | None -> (0, 0.0)
  in
  let h = H.create () in
  List.iter (H.record h) [ 1_000_000; 2_000_000; 3_000_000 ];
  let record ~host ~pid =
    {
      (sample_snapshot ~host ~pid ()) with
      Telemetry.counters = [];
      histograms = [ ("pool.worker.busy", h) ];
    }
  in
  let k0, s0 = busy () in
  Telemetry.absorb_foreign
    [
      record ~host:"nodeB" ~pid:9;
      record ~host:(Unix.gethostname ()) ~pid:(Unix.getpid ());
    ];
  let k1, s1 = busy () in
  Alcotest.(check int) "foreign samples absorbed, own skipped" (k0 + 3) k1;
  Alcotest.(check (float 1e-9)) "foreign sum absorbed" (s0 +. 0.006) s1

(* ---- sealed snapshots on disk: corruption is skipped-and-counted ---- *)

let test_corruption_skipped () =
  let d = temp_dir "corrupt" in
  traced_session d;
  Metrics.set (Metrics.counter "sweep.points") 20;
  Trace.span "corrupt.event" (fun () -> ());
  Telemetry.flush ();
  end_traced ();
  let good, skipped = Telemetry.load_dir d in
  Alcotest.(check int) "one good snapshot" 1 (List.length good);
  Alcotest.(check int) "nothing skipped yet" 0 skipped;
  let good_path =
    Telemetry.snapshot_path ~dir:d ~host:(Unix.gethostname ())
      ~pid:(Unix.getpid ())
  in
  let raw = read_all good_path in
  let log = read_all (Telemetry.events_path good_path) in
  Alcotest.(check bool) "the events are in the log" true
    (contains log "corrupt.event" && not (contains raw "corrupt.event"));
  (* Damaged records beside intact copies of the log: a flipped byte
     breaks the MD5 seal; a truncation loses the trailer; garbage was
     never sealed at all.  The flip lands in the host name, which a
     header-only read parses without complaint: only the seal can catch
     it there. *)
  let damaged host pid body =
    let path = Telemetry.snapshot_path ~dir:d ~host ~pid in
    write_file (Telemetry.events_path path) log;
    write_file path body
  in
  let flipped = Bytes.of_string raw in
  Bytes.set flipped (first_index raw "host " + 5) '\xff';
  damaged "flip" 1 (Bytes.to_string flipped);
  damaged "trunc" 2 (String.sub raw 0 (String.length raw / 2));
  damaged "junk" 3 "hello\n";
  let before = Metrics.value (Metrics.counter "telem.snapshots_skipped") in
  let snaps, skipped = Telemetry.load_dir d in
  Alcotest.(check int) "good one still loads" 1 (List.length snaps);
  Alcotest.(check int) "three skipped" 3 skipped;
  Alcotest.(check int) "skips counted in metrics" (before + 3)
    (Metrics.value (Metrics.counter "telem.snapshots_skipped"));
  let heads, head_skipped = Telemetry.load_dir ~header_only:true d in
  Alcotest.(check int) "header-only: good one loads" 1 (List.length heads);
  Alcotest.(check int) "header-only: three skipped" 3 head_skipped;
  (* The damaged files do not poison the merge either. *)
  let _json, _events, procs, merge_skipped = Telemetry.merge_dir d in
  Alcotest.(check int) "merge sees one process" 1 procs;
  Alcotest.(check int) "merge counts the skips" 3 merge_skipped

let test_crash_records () =
  let d = temp_dir "crash" in
  Telemetry.disable ();
  Telemetry.enable ~dir:d;
  let hold = { Telemetry.shard = 2; owner = "me:1:0"; prefix = "prefix" } in
  Telemetry.flush ~hold ();
  Telemetry.crash_dump ~reason:"internal error: boom";
  Telemetry.disable ();
  Alcotest.(check (list string)) "no crash file" [] (files_with d ".crash");
  let snaps, skipped = Telemetry.load_dir d in
  Alcotest.(check int) "no skips" 0 skipped;
  match snaps with
  | [ c ] ->
      Alcotest.(check string) "note" "internal error: boom" c.Telemetry.note;
      Alcotest.(check int) "own pid" (Unix.getpid ()) c.Telemetry.pid;
      Alcotest.(check bool) "the last flush's hold" true
        (c.Telemetry.hold = Some hold);
      Alcotest.(check bool) "the process's own record" true
        (Telemetry.read_file (own_record d) = Some c)
  | _ -> Alcotest.fail "expected exactly one record"

(* Run [fleet_child.exe] (built beside this test) holding [shard] of
   [dir] with [prefix]; its pid and exit status. *)
let run_fleet_child ~dir ~shard ~prefix mode =
  let prefix_file = Filename.temp_file "gat-test-prefix" ".txt" in
  write_file prefix_file prefix;
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "fleet_child.exe"
  in
  let pid =
    Unix.create_process exe
      [| exe; dir; string_of_int shard; prefix_file; mode |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  Sys.remove prefix_file;
  (pid, status)

(* A child with an active session SIGTERMs itself: the handler dumps
   the record with a note naming the signal as POSIX does, then
   re-delivers it, so the child still dies by SIGTERM. *)
let test_sigterm_note () =
  let d = temp_dir "sigterm" in
  let child, status = run_fleet_child ~dir:d ~shard:1 ~prefix:"p" "sigterm" in
  Alcotest.(check bool) "signalled 15: the signal was re-delivered" true
    (status = Unix.WSIGNALED Sys.sigterm);
  match Telemetry.load_dir d with
  | [ r ], 0 ->
      Alcotest.(check int) "the child's record" child r.Telemetry.pid;
      Alcotest.(check string) "the note names the signal"
        "fatal signal 15 (SIGTERM)" r.Telemetry.note;
      Alcotest.(check bool) "the flushed hold is kept" true
        (match r.Telemetry.hold with
        | Some h -> h.Telemetry.shard = 1 && h.Telemetry.prefix = "p"
        | None -> false)
  | l, skipped ->
      Alcotest.failf "expected one record, got %d (%d skipped)" (List.length l)
        skipped

let test_dedupe_keeps_fullest () =
  let thin = sample_snapshot () in
  let fat =
    { thin with Telemetry.counters = [ ("sweep.points", 9); ("more", 4) ] }
  in
  let other = sample_snapshot ~host:"nodeB" ~pid:1 () in
  match Telemetry.dedupe [ thin; other; fat ] with
  | [ a; b ] ->
      (* Sorted by (host, pid); per-key the fullest capture wins. *)
      Alcotest.(check string) "first host" "nodeA" a.Telemetry.host;
      Alcotest.(check (list (pair string int)))
        "fullest kept" fat.Telemetry.counters a.Telemetry.counters;
      Alcotest.(check string) "second host" "nodeB" b.Telemetry.host
  | l -> Alcotest.fail (Printf.sprintf "expected 2 snapshots, got %d" (List.length l))

let test_dedupe_tie_on_counters () =
  (* Two snapshots of one process with equal counter totals: the later
     capture wins, however many events the earlier one carries — so
     header-only and full reads pick the same one. *)
  let base = sample_snapshot () in
  let early =
    {
      base with
      Telemetry.events = base.Telemetry.events @ base.Telemetry.events;
    }
  in
  let late =
    {
      base with
      Telemetry.captured_wall_ns = Int64.add base.Telemetry.captured_wall_ns 1L;
      note = "fatal signal 15";
      events = [];
    }
  in
  List.iter
    (fun snaps ->
      match Telemetry.dedupe snaps with
      | [ s ] ->
          Alcotest.(check string) "later capture wins" "fatal signal 15"
            s.Telemetry.note
      | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l))
    [ [ early; late ]; [ late; early ] ]

(* ---- incremental flushes ---- *)

let sort_events evs = List.sort compare evs

let test_incremental_flushes () =
  let d = temp_dir "incremental" in
  Trace.clear ();
  traced_session d;
  let host = Unix.gethostname () and pid = Unix.getpid () in
  let bytes = Metrics.counter "telem.bytes_written" in
  let check what path =
    match Telemetry.read_file path with
    | None -> Alcotest.failf "%s: snapshot did not parse" what
    | Some snap ->
        Alcotest.(check bool)
          (what ^ ": file events = Trace.events ()")
          true
          (sort_events snap.Telemetry.events = sort_events (Trace.events ()))
  in
  let path = Telemetry.snapshot_path ~dir:d ~host ~pid in
  let log = Telemetry.events_path path in
  let log_size () = if Sys.file_exists log then file_size log else 0 in
  let flush ?(restart = false) what =
    let before = Metrics.value bytes in
    let log_before = if restart then 0 else log_size () in
    Telemetry.flush ();
    Alcotest.(check int)
      (what ^ ": bytes_written grows by the record and the new batch")
      (String.length (read_all path) + log_size () - log_before)
      (Metrics.value bytes - before);
    Alcotest.(check int)
      (what ^ ": the record counts the whole log")
      (log_size ())
      (snd (events_line path));
    check what path
  in
  let record k =
    Trace.span ~args:[ ("k", Trace.I k) ] "test.main" (fun () ->
        ignore
          (Gat_util.Pool.map ~jobs:2
             (fun i ->
               Trace.span ~args:[ ("i", Trace.I i); ("s", Trace.S "x") ]
                 "test.pool" (fun () -> i))
             (Array.init 8 Fun.id)))
  in
  for k = 1 to 4 do
    record k;
    flush (Printf.sprintf "flush %d" k);
    if k = 2 then begin
      (* A clear between flushes: the kept lines start over. *)
      Trace.clear ();
      flush ~restart:true "after clear"
    end
  done;
  Alcotest.(check bool) "events were recorded" true (Trace.events () <> []);
  record 5;
  Telemetry.crash_dump ~reason:"end";
  check "crash dump" path;
  end_traced ();
  Trace.clear ()

let test_header_only_read () =
  let d = temp_dir "header-only" in
  traced_session d;
  Metrics.set (Metrics.counter "sweep.points") 12;
  Metrics.observe (Metrics.histogram "sweep.compile") 2_000;
  Metrics.observe_timed (Metrics.histogram "test.header_only") (fun () -> ());
  Trace.span "test.header" (fun () -> ());
  Telemetry.flush ();
  end_traced ();
  let path =
    Telemetry.snapshot_path ~dir:d ~host:(Unix.gethostname ())
      ~pid:(Unix.getpid ())
  in
  match
    (Telemetry.read_file path, Telemetry.read_file ~header_only:true path)
  with
  | Some full, Some head ->
      Alcotest.(check bool) "full read has events" true (full.Telemetry.events <> []);
      Alcotest.(check bool) "header-only has none" true (head.Telemetry.events = []);
      check_snapshot_eq { full with Telemetry.events = [] } head
  | _ -> Alcotest.fail "snapshot did not parse"

(* ---- the events log ---- *)

(* A session in a fresh directory that flushed twice, each time with a
   new event: its record path. *)
let flushed_session name =
  let d = temp_dir name in
  traced_session d;
  Trace.span "log.first" (fun () -> ());
  Telemetry.flush ();
  Trace.span "log.second" (fun () -> ());
  Telemetry.flush ();
  end_traced ();
  own_record d

let append_file path s =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
    path (fun oc -> Out_channel.output_string oc s)

let test_garbage_past_bytes () =
  let path = flushed_session "log-garbage" in
  let full =
    match Telemetry.read_file path with
    | Some s -> s
    | None -> Alcotest.fail "intact snapshot did not read"
  in
  Alcotest.(check bool) "two batches' events" true
    (List.exists (fun e -> e.Trace.name = "log.second") full.Telemetry.events);
  (* A writer killed in mid-append leaves a partial frame past BYTES. *)
  append_file (Telemetry.events_path path) "batch 999 0123\n{\"name\":";
  (match Telemetry.read_file path with
  | Some s -> check_snapshot_eq full s
  | None -> Alcotest.fail "garbage past BYTES spoiled the read");
  let snaps, skipped = Telemetry.load_dir (Filename.dirname path) in
  Alcotest.(check int) "loads" 1 (List.length snaps);
  Alcotest.(check int) "nothing skipped" 0 skipped

let test_damaged_log_skipped () =
  let path = flushed_session "log-damaged" in
  let d = Filename.dirname path in
  let raw = read_all path and log = read_all (Telemetry.events_path path) in
  let _, bytes = events_line path in
  Alcotest.(check int) "log is BYTES long" bytes (String.length log);
  (* Intact records beside damaged logs: one a byte short of BYTES,
     one with a byte flipped inside the second batch's events. *)
  let damaged host pid log =
    let path = Telemetry.snapshot_path ~dir:d ~host ~pid in
    write_file path raw;
    write_file (Telemetry.events_path path) log
  in
  damaged "short" 1 (String.sub log 0 (bytes - 1));
  let flipped = Bytes.of_string log in
  Bytes.set flipped (first_index log "log.second") 'L';
  damaged "flip" 2 (Bytes.to_string flipped);
  let before = Metrics.value (Metrics.counter "telem.snapshots_skipped") in
  let snaps, skipped = Telemetry.load_dir d in
  Alcotest.(check int) "the intact one loads" 1 (List.length snaps);
  Alcotest.(check int) "two skipped" 2 skipped;
  Alcotest.(check int) "skips counted in metrics" (before + 2)
    (Metrics.value (Metrics.counter "telem.snapshots_skipped"));
  let _json, _events, procs, merge_skipped = Telemetry.merge_dir d in
  Alcotest.(check int) "merge sees one process" 1 procs;
  Alcotest.(check int) "merge counts the skips" 2 merge_skipped;
  (* Header-only reads never open the log. *)
  let heads, head_skipped = Telemetry.load_dir ~header_only:true d in
  Alcotest.(check int) "header-only: all three load" 3 (List.length heads);
  Alcotest.(check int) "header-only: none skipped" 0 head_skipped

let test_header_only_without_log () =
  let path = flushed_session "log-deleted" in
  let full = Telemetry.read_file path in
  Sys.remove (Telemetry.events_path path);
  (match (full, Telemetry.read_file ~header_only:true path) with
  | Some full, Some head ->
      check_snapshot_eq { full with Telemetry.events = [] } head
  | _ -> Alcotest.fail "snapshot did not read");
  Alcotest.(check bool) "a full read needs the log" true
    (Telemetry.read_file path = None)

let test_clear_restarts_log () =
  let d = temp_dir "log-clear" in
  traced_session d;
  let path = own_record d in
  let log = Telemetry.events_path path in
  Trace.span "before.clear" (fun () -> ());
  Telemetry.flush ();
  Alcotest.(check bool) "first batch logged" true
    (contains (read_all log) "before.clear");
  Trace.clear ();
  Trace.span "after.clear" (fun () -> ());
  Telemetry.flush ();
  let text = read_all log in
  Alcotest.(check bool) "the old batches are gone" false
    (contains text "before.clear");
  Alcotest.(check bool) "the new batch is logged" true
    (contains text "after.clear");
  Alcotest.(check int) "the record counts the restarted log"
    (String.length text) (snd (events_line path));
  (match Telemetry.read_file path with
  | Some snap ->
      Alcotest.(check bool) "events = Trace.events ()" true
        (sort_events snap.Telemetry.events = sort_events (Trace.events ()))
  | None -> Alcotest.fail "snapshot did not read");
  end_traced ()

let test_crash_extends_log () =
  let d = temp_dir "log-shared" in
  traced_session d;
  let record = own_record d in
  Trace.span "shared.first" (fun () -> ());
  Telemetry.flush ();
  let flushed = Telemetry.read_file record in
  Trace.span "shared.second" (fun () -> ());
  Telemetry.crash_dump ~reason:"boom";
  end_traced ();
  Alcotest.(check int) "one log file" 1 (List.length (files_with d ".events"));
  match (flushed, Telemetry.read_file record) with
  | Some t, Some c ->
      let nt = List.length t.Telemetry.events in
      Alcotest.(check string) "the crash note" "boom" c.Telemetry.note;
      Alcotest.(check bool) "the crash record extends the flush's" true
        (List.filteri (fun i _ -> i < nt) c.Telemetry.events
        = t.Telemetry.events
        && List.length c.Telemetry.events > nt);
      Alcotest.(check bool) "only the crash record has the late event" true
        (List.exists (fun e -> e.Trace.name = "shared.second") c.Telemetry.events
        && not
             (List.exists
                (fun e -> e.Trace.name = "shared.second")
                t.Telemetry.events))
  | _ -> Alcotest.fail "a record did not read"

let test_bytes_written_bound () =
  (* A flush costs its own batch plus a small record, not the whole
     session: rewriting every earlier batch on each flush overruns the
     bound by far. *)
  let d = temp_dir "log-bound" in
  Trace.clear ();
  traced_session d;
  let bytes = Metrics.counter "telem.bytes_written" in
  let before = Metrics.value bytes in
  let k = 20 in
  for flush = 1 to k do
    for i = 1 to 50 do
      Trace.span
        ~args:[ ("flush", Trace.I flush); ("i", Trace.I i) ]
        "bound.event"
        (fun () -> ())
    done;
    Telemetry.flush ()
  done;
  end_traced ();
  let log = file_size (Telemetry.events_path (own_record d)) in
  let written = Metrics.value bytes - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes written <= %d log + %d x 16 KiB" written log k)
    true
    (written <= log + (k * 16_384));
  Trace.clear ()

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_no_leaked_descriptors () =
  if Sys.file_exists "/proc/self/fd" then begin
    let d = temp_dir "log-fds" in
    Telemetry.disable ();
    let before = fd_count () in
    Trace.enable ();
    for i = 1 to 50 do
      Telemetry.enable ~dir:d;
      Trace.span ~args:[ ("i", Trace.I i) ] "fds.event" (fun () -> ());
      Telemetry.flush ();
      Telemetry.disable ()
    done;
    Trace.disable ();
    Alcotest.(check bool) "the sessions flushed" true
      (Telemetry.read_file (own_record d) <> None);
    Alcotest.(check int) "no more open descriptors" before (fd_count ())
  end

(* A session leaves span recording to [--trace]: untraced, its flushes
   and crash dump publish [events 0 0] and no log; the same flushes in a
   traced process write batches that read back whole. *)
let test_untraced_session_has_no_log () =
  let flushes d =
    let path = own_record d in
    for i = 1 to 3 do
      Trace.span ~args:[ ("i", Trace.I i) ] "untraced.event" (fun () -> ());
      Telemetry.flush ()
    done;
    path
  in
  let d = temp_dir "untraced" in
  Telemetry.disable ();
  Trace.disable ();
  Trace.clear ();
  Telemetry.enable ~dir:d;
  let path = flushes d in
  Alcotest.(check (pair int int)) "flushes: events 0 0" (0, 0) (events_line path);
  Telemetry.crash_dump ~reason:"end";
  Alcotest.(check (pair int int)) "crash dump: events 0 0" (0, 0)
    (events_line path);
  Telemetry.disable ();
  Alcotest.(check (list string)) "no events log" [] (files_with d ".events");
  (match Telemetry.read_file path with
  | Some snap ->
      Alcotest.(check string) "the crash note" "end" snap.Telemetry.note;
      Alcotest.(check int) "no events" 0 (List.length snap.Telemetry.events)
  | None -> Alcotest.fail "the untraced record did not read");
  let d = temp_dir "traced" in
  traced_session d;
  let path = flushes d in
  end_traced ();
  let n, bytes = events_line path in
  Alcotest.(check int) "traced: three events" 3 n;
  Alcotest.(check int) "traced: the log is BYTES long" bytes
    (file_size (Telemetry.events_path path));
  (match Telemetry.read_file path with
  | Some snap ->
      Alcotest.(check (list int)) "traced: every batch reads back" [ 1; 2; 3 ]
        (List.map
           (fun e ->
             match List.assoc_opt "i" e.Trace.args with
             | Some (Trace.I i) -> i
             | _ -> -1)
           snap.Telemetry.events)
  | None -> Alcotest.fail "the traced record did not read");
  Trace.clear ()

(* ---- multi-process merge with epoch-anchor alignment ---- *)

let test_merged_trace_two_processes () =
  let d = temp_dir "merge2" in
  let mk host pid points =
    let s = sample_snapshot ~host ~pid () in
    { s with Telemetry.counters = [ ("sweep.points", points) ] }
  in
  let publish s =
    publish_snapshot
      (Telemetry.snapshot_path ~dir:d ~host:s.Telemetry.host
         ~pid:s.Telemetry.pid)
      s
  in
  publish (mk "alpha" 11 3);
  publish (mk "beta" 22 4);
  let json, events, procs, skipped = Telemetry.merge_dir d in
  Alcotest.(check int) "two processes" 2 procs;
  Alcotest.(check int) "no skips" 0 skipped;
  Alcotest.(check int) "all events merged" 4 events;
  match Trace.validate_string ~require:[ "sweep.points=7" ] json with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check int) "two pids carry events" 2 v.Trace.pids;
      Alcotest.(check int) "validator event count" 4 v.Trace.events;
      Alcotest.(check bool) "summed counter present" true
        (List.mem "sweep.points" v.Trace.counters)

let test_epoch_anchor_alignment () =
  (* Two processes whose monotonic clocks disagree wildly; the epoch
     anchors must still order their events by wall time, rebased so
     the fleet's earliest event sits at ts 0. *)
  let ev name ts_ns =
    { Trace.name; ph = 'X'; ts_ns; dur_ns = 0L; tid = 0; args = [] }
  in
  let proc host pid ~mono ~wall events =
    {
      Trace.p_host = host;
      p_pid = pid;
      p_anchor_mono_ns = mono;
      p_anchor_wall_ns = wall;
      p_events = events;
      p_counters = [];
      p_dropped = 0;
    }
  in
  let late =
    (* wall = 1_000_000 + (10_000 - 5_000) = 1_005_000 ns *)
    proc "a" 1 ~mono:5_000L ~wall:1_000_000L [ ev "late" 10_000L ]
  in
  let early =
    (* wall = 2_000 + (1_000_000 - 999_000) = 3_000 ns *)
    proc "b" 2 ~mono:999_000L ~wall:2_000L [ ev "early" 1_000_000L ]
  in
  let json, n = Trace.render_merged [ late; early ] in
  Alcotest.(check int) "both events" 2 n;
  Alcotest.(check bool) "earliest event rebased to 0" true
    (contains json "{\"name\":\"early\",\"cat\":\"gat\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":0.000");
  Alcotest.(check bool) "later event at the wall delta" true
    (contains json "{\"name\":\"late\",\"cat\":\"gat\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1002.000");
  Alcotest.(check bool) "process names carry host:pid" true
    (contains json "gat a:1" && contains json "gat b:2");
  match Trace.validate_string json with
  | Error e -> Alcotest.fail e
  | Ok v -> Alcotest.(check int) "two pids" 2 v.Trace.pids

(* ---- gat monitor ---- *)

let test_monitor_rows () =
  let d = temp_dir "monitor" in
  Telemetry.disable ();
  Telemetry.enable ~dir:d;
  Metrics.set (Metrics.counter "sweep.points") 40;
  Metrics.observe (Metrics.histogram "sweep.compile") 1_000_000;
  Metrics.observe (Metrics.histogram "sweep.simulate") 3_000_000;
  let owner = Lease.make_owner () in
  let lease = Filename.concat d "shard-0.lease" in
  Alcotest.(check bool) "lease acquired" true (Lease.acquire ~path:lease ~owner);
  (* The heartbeat publishes this process's record with its hold. *)
  Alcotest.(check bool) "heartbeat while holding" true
    (Lease.heartbeat ~path:lease
       { Telemetry.shard = 0; owner; prefix = "" });
  (let rows, skipped = Monitor.rows d in
   Alcotest.(check int) "no skips" 0 skipped;
   match rows with
   | [ r ] ->
       Alcotest.(check string) "host" (Unix.gethostname ()) r.Monitor.host;
       Alcotest.(check int) "pid" (Unix.getpid ()) r.Monitor.pid;
       Alcotest.(check bool) "holds shard 0" true (r.Monitor.shard = Some 0);
       Alcotest.(check bool) "points visible" true (r.Monitor.points >= 40);
       Alcotest.(check bool) "p50 positive" true (r.Monitor.p50_ns > 0);
       Alcotest.(check bool) "p99 >= p50" true (r.Monitor.p99_ns >= r.Monitor.p50_ns);
       Alcotest.(check bool) "renewal age is the fresh record's" true
         (r.Monitor.snapshot_age_s < 5.);
       Alcotest.(check bool) "not stopped" true (not r.Monitor.stopped);
       let line = Monitor.render_row r in
       Alcotest.(check bool) "line names the worker" true
         (contains line (Printf.sprintf "%s:%d" r.Monitor.host r.Monitor.pid));
       Alcotest.(check bool) "line says running" true (contains line "running");
       let table = Monitor.render rows in
       Alcotest.(check bool) "table has header" true (contains table "pts/s")
   | l ->
       Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l)));
  (* One ttl after the last heartbeat the hold is a dead holder's. *)
  (match
     Monitor.rows ~now:(Unix.gettimeofday () +. Gat_tuner.Shard.default_ttl +. 1.) d
   with
  | [ r ], _ ->
      Alcotest.(check bool) "lapsed hold not shown" true (r.Monitor.shard = None);
      Alcotest.(check bool) "line says idle" true (contains (Monitor.render_row r) "idle")
  | l, _ -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l)));
  (* The crash republishes the record with the note and the hold: the
     row is stopped and shows no shard, however fresh the record. *)
  Telemetry.crash_dump ~reason:"boom";
  Telemetry.disable ();
  let rows, _ = Monitor.rows d in
  match rows with
  | [ r ] ->
      Alcotest.(check bool) "stopped flagged" true r.Monitor.stopped;
      Alcotest.(check string) "note" "boom" r.Monitor.note;
      Alcotest.(check bool) "stopped row shows no shard" true
        (r.Monitor.shard = None);
      let line = Monitor.render_row r in
      Alcotest.(check bool) "line says stopped" true
        (contains line "stopped: boom");
      (* A holder stopped cleanly by SIGINT leaves the interrupt as its
         note: the row says it stopped, and why, not that it crashed. *)
      let sigint = "sweep interrupted at 256/5120 points" in
      publish_snapshot
        (Telemetry.snapshot_path ~dir:d ~host:"nodeB" ~pid:9)
        (sample_snapshot ~host:"nodeB" ~pid:9 ~note:sigint ());
      let rows, _ = Monitor.rows d in
      (match List.find_opt (fun r -> r.Monitor.host = "nodeB") rows with
      | None -> Alcotest.fail "no row for the interrupted holder"
      | Some r ->
          let line = Monitor.render_row r in
          Alcotest.(check bool) "interrupted line says stopped" true
            (contains line ("stopped: " ^ sigint));
          Alcotest.(check bool) "interrupted line does not say crashed" false
            (contains line "crashed"));
      Alcotest.(check bool) "line shows no shard" true
        (contains line
           (Printf.sprintf "%-20s %6s"
              (Printf.sprintf "%s:%d" r.Monitor.host r.Monitor.pid)
              "-"));
      (* A process on this host whose pid no longer exists (a reaped
         child stands in for a SIGKILLed holder: no crash note) reads
         gone, not running or idle, however fresh its record and
         hold. *)
      let here = Unix.gethostname () in
      let child =
        Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      ignore (Unix.waitpid [] child);
      publish_snapshot
        (Telemetry.snapshot_path ~dir:d ~host:here ~pid:child)
        {
          (sample_snapshot ~host:here ~pid:child
             ~hold:{ Telemetry.shard = 1; owner = "o"; prefix = "" }
             ())
          with
          captured_wall_ns = Int64.of_float (Unix.gettimeofday () *. 1e9);
        };
      let rows, _ = Monitor.rows d in
      (match List.find_opt (fun r -> r.Monitor.pid = child) rows with
      | None -> Alcotest.fail "no row for the dead child"
      | Some r ->
          Alcotest.(check bool) "gone flagged" true r.Monitor.gone;
          Alcotest.(check bool) "gone row shows no shard" true
            (r.Monitor.shard = None);
          Alcotest.(check bool) "line says gone" true
            (contains (Monitor.render_row r) " gone"));
      Alcotest.(check bool) "this live process is not gone" true
        (List.for_all
           (fun r -> r.Monitor.pid = child || not r.Monitor.gone)
           rows)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l))

let () =
  Alcotest.run "gat_telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket scheme" `Quick test_bucket_scheme;
          QCheck_alcotest.to_alcotest prop_bucket_monotone;
          QCheck_alcotest.to_alcotest prop_merge_order_invariant;
          QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
          Alcotest.test_case "parse rejects garbage" `Quick
            test_parse_rejects_garbage;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "payload roundtrip" `Quick test_payload_roundtrip;
          Alcotest.test_case "payload rejects malformed" `Quick
            test_payload_rejects_malformed;
          QCheck_alcotest.to_alcotest prop_payload_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "corruption skipped-and-counted" `Quick
            test_corruption_skipped;
          Alcotest.test_case "crash flight records" `Quick test_crash_records;
          Alcotest.test_case "SIGTERM note names the signal" `Quick
            test_sigterm_note;
          Alcotest.test_case "dedupe keeps fullest" `Quick
            test_dedupe_keeps_fullest;
          Alcotest.test_case "dedupe tie on counters" `Quick
            test_dedupe_tie_on_counters;
          Alcotest.test_case "header-only read" `Quick test_header_only_read;
        ] );
      ( "flush",
        [
          Alcotest.test_case "incremental flushes match Trace.events" `Quick
            test_incremental_flushes;
        ] );
      ( "log",
        [
          Alcotest.test_case "garbage past BYTES is ignored" `Quick
            test_garbage_past_bytes;
          Alcotest.test_case "short or flipped log is skipped" `Quick
            test_damaged_log_skipped;
          Alcotest.test_case "header-only read needs no log" `Quick
            test_header_only_without_log;
          Alcotest.test_case "Trace.clear restarts the log" `Quick
            test_clear_restarts_log;
          Alcotest.test_case "crash dump extends the flush's log" `Quick
            test_crash_extends_log;
          Alcotest.test_case "bytes_written tracks the batches" `Quick
            test_bytes_written_bound;
          Alcotest.test_case "no leaked log descriptors" `Quick
            test_no_leaked_descriptors;
          Alcotest.test_case "untraced session has no log" `Quick
            test_untraced_session_has_no_log;
        ] );
      ( "merge",
        [
          Alcotest.test_case "two-process merged trace" `Quick
            test_merged_trace_two_processes;
          Alcotest.test_case "epoch anchor alignment" `Quick
            test_epoch_anchor_alignment;
          Alcotest.test_case "absorb_foreign folds durations" `Quick
            test_absorb_foreign_durations;
        ] );
      ( "monitor",
        [ Alcotest.test_case "rows and rendering" `Quick test_monitor_rows ] );
    ]
