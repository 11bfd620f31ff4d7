(* Distributed sweep sharding: atomic lease arbitration (O_EXCL, with
   and without injected faults), expiry and takeover, shard planning,
   manifest round-trips, coordinator/worker end-to-end equivalence,
   salvaged-checkpoint merges, merge-time fault injection, and the
   gc pinning of live coordinations.

   The load-bearing property throughout: a sharded sweep — however it
   is partitioned, interrupted, salvaged or reclaimed — produces a
   report bit-identical to the uninterrupted single-process sweep. *)

module Tuner = Gat_tuner.Tuner
module Disk_cache = Gat_tuner.Disk_cache
module Shard = Gat_tuner.Shard
module Variant = Gat_tuner.Variant
module Space = Gat_tuner.Space
module Params = Gat_compiler.Params
module Lease = Gat_util.Lease
module Telemetry = Gat_util.Telemetry
module Fault = Gat_util.Fault
module Error = Gat_util.Error

(* Private scratch cache directory — never the user's real cache. *)
let scratch =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-test-shard-%d" (Unix.getpid ()))
  in
  Unix.putenv "GAT_CACHE_DIR" d;
  d

let kernel = Gat_workloads.Workloads.atax
let gpu = Gat_arch.Gpu.k20

let space =
  {
    Space.tc = [ 64; 128; 256 ];
    bc = [ 24; 48 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

let total = Space.cardinality space

let reset () =
  Tuner.clear_cache ();
  Fault.set_spec None;
  Gat_util.Cancel.reset ();
  Gat_util.Store.set_enabled Disk_cache.cache false;
  Gat_util.Store.reset_degraded Disk_cache.cache

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat scratch (Printf.sprintf "dir-%d" !n) in
    Gat_util.Cache_dir.ensure d;
    d

let check_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_report_eq (a : Tuner.report) (b : Tuner.report) =
  Alcotest.(check int) "variant count"
    (List.length a.Tuner.variants)
    (List.length b.Tuner.variants);
  List.iter2
    (fun (x : Variant.t) (y : Variant.t) ->
      Alcotest.(check int) "params" 0
        (Params.compare x.Variant.params y.Variant.params);
      check_bits "time_ms" x.Variant.time_ms y.Variant.time_ms;
      check_bits "occupancy" x.Variant.occupancy y.Variant.occupancy;
      Alcotest.(check int) "registers" x.Variant.registers y.Variant.registers)
    a.Tuner.variants b.Tuner.variants;
  Alcotest.(check int) "failure count"
    (List.length a.Tuner.failures)
    (List.length b.Tuner.failures);
  List.iter2
    (fun (x : Variant.failure) (y : Variant.failure) ->
      Alcotest.(check int) "failed params" 0
        (Params.compare x.Variant.failed_params y.Variant.failed_params);
      Alcotest.(check string) "message" x.Variant.message y.Variant.message)
    a.Tuner.failures b.Tuner.failures;
  Alcotest.(check int) "unsafe count"
    (List.length a.Tuner.unsafe)
    (List.length b.Tuner.unsafe);
  List.iter2
    (fun (x : Variant.unsafe) (y : Variant.unsafe) ->
      Alcotest.(check int) "unsafe params" 0
        (Params.compare x.Variant.unsafe_params y.Variant.unsafe_params);
      Alcotest.(check string) "reason" x.Variant.reason y.Variant.reason)
    a.Tuner.unsafe b.Tuner.unsafe

let golden () =
  reset ();
  Tuner.sweep_report ~space ~jobs:2 kernel gpu ~n:64 ~seed:42

(* ---- leases ---- *)

(* The holder record is this process's telemetry record in the lease's
   directory; a heartbeat publishes it. *)
let hold owner = { Telemetry.shard = 0; owner; prefix = "" }

let with_session dir f =
  Telemetry.enable ~dir;
  Fun.protect ~finally:Telemetry.disable f

let record_in dir =
  Telemetry.snapshot_path ~dir ~host:(Unix.gethostname ()) ~pid:(Unix.getpid ())

let backdate path secs =
  let t = Unix.gettimeofday () -. secs in
  Unix.utimes path t t

let test_lease_roundtrip () =
  reset ();
  let dir = fresh_dir () in
  let path = Filename.concat dir "l.lease" in
  let owner = Lease.make_owner () in
  Alcotest.(check bool) "acquired" true (Lease.acquire ~path ~owner);
  (match Lease.read path with
  | Some i ->
      Alcotest.(check string) "owner" owner i.Lease.owner;
      Alcotest.(check int) "pid" (Unix.getpid ()) i.Lease.pid;
      Alcotest.(check string) "host" (Unix.gethostname ()) i.Lease.host
  | None -> Alcotest.fail "lease body unreadable");
  Alcotest.(check bool) "second acquire loses" false
    (Lease.acquire ~path ~owner:(Lease.make_owner ()));
  Alcotest.(check bool) "live" true (Lease.live ~ttl:30.0 path);
  with_session dir (fun () ->
      Alcotest.(check bool) "holder heartbeat" true
        (Lease.heartbeat ~path (hold owner));
      (match Telemetry.read_file ~header_only:true (record_in dir) with
      | Some { Telemetry.hold = Some h; _ } ->
          Alcotest.(check string) "record names the holder" owner
            h.Telemetry.owner
      | _ -> Alcotest.fail "heartbeat left no holder record");
      Alcotest.(check bool) "foreign heartbeat refused" false
        (Lease.heartbeat ~path (hold "someone-else")));
  Lease.release ~path ~owner:"someone-else";
  Alcotest.(check bool) "foreign release is a no-op" true
    (Sys.file_exists path);
  Lease.release ~path ~owner;
  Alcotest.(check bool) "released" false (Sys.file_exists path)

let test_lease_expiry_takeover () =
  reset ();
  let path = Filename.concat (fresh_dir ()) "l.lease" in
  let owner = Lease.make_owner () in
  Alcotest.(check bool) "acquired" true (Lease.acquire ~path ~owner);
  Unix.sleepf 0.1;
  (* No heartbeat since the claim: the claim's own mtime lapses. *)
  Alcotest.(check bool) "expired" false (Lease.live ~ttl:0.05 path);
  Alcotest.(check bool) "broken" true (Lease.break_if_expired ~ttl:0.05 path);
  Alcotest.(check bool) "gone" false (Sys.file_exists path);
  Alcotest.(check bool) "absent lease not broken twice" false
    (Lease.break_if_expired ~ttl:0.05 path);
  let other = Lease.make_owner () in
  Alcotest.(check bool) "takeover" true (Lease.acquire ~path ~owner:other);
  Alcotest.(check bool) "dead owner heartbeat refused" false
    (Lease.heartbeat ~path (hold owner))

(* The lease file is written once; its holder record's mtime is what
   keeps it alive after the claim, and what lets it die. *)
let test_lease_record_heartbeat () =
  reset ();
  let dir = fresh_dir () in
  let path = Filename.concat dir "l.lease" in
  let owner = Lease.make_owner () in
  Alcotest.(check bool) "acquired" true (Lease.acquire ~path ~owner);
  with_session dir (fun () ->
      Alcotest.(check bool) "heartbeat" true (Lease.heartbeat ~path (hold owner)));
  backdate path 100.;
  Alcotest.(check bool) "fresh record keeps the lease live past its own mtime"
    true (Lease.live ~ttl:30.0 path);
  backdate (record_in dir) 100.;
  Alcotest.(check bool) "backdated record reads dead" false
    (Lease.live ~ttl:30.0 path);
  Alcotest.(check bool) "dead lease is broken" true
    (Lease.break_if_expired ~ttl:30.0 path)

let test_lease_corrupt_grace () =
  reset ();
  let path = Filename.concat (fresh_dir ()) "l.lease" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "garbage, not a sealed lease");
  (* A fresh-but-unreadable file could be a racing acquire mid-write:
     it gets one ttl of mtime grace before reading as dead. *)
  Alcotest.(check bool) "fresh unreadable lease gets grace" true
    (Lease.live ~ttl:30.0 path);
  Alcotest.(check bool) "grace lapses with the ttl" false
    (Lease.live ~ttl:(-1.0) path);
  Alcotest.(check bool) "lapsed garbage is breakable" true
    (Lease.break_if_expired ~ttl:(-1.0) path)

let test_renew_soft_failure_keeps_lease () =
  reset ();
  let dir = fresh_dir () in
  let path = Filename.concat dir "l.lease" in
  let owner = Lease.make_owner () in
  Alcotest.(check bool) "acquired" true (Lease.acquire ~path ~owner);
  with_session dir (fun () ->
      Alcotest.(check bool) "heartbeat" true (Lease.heartbeat ~path (hold owner));
      backdate path 100.;
      backdate (record_in dir) 10.;
      Fault.set_spec (Some "lease-renew:1:sticky,seed:2");
      Alcotest.(check bool) "injected heartbeat fault is soft" true
        (Lease.heartbeat ~path (hold owner));
      Fault.set_spec None);
  Alcotest.(check bool) "the old heartbeat stands" true
    ((Unix.stat (record_in dir)).Unix.st_mtime < Unix.gettimeofday () -. 5.);
  Alcotest.(check bool) "lease still live on the old heartbeat" true
    (Lease.live ~ttl:30.0 path)

(* Two domains race the same O_EXCL create; the filesystem must grant
   it to at most one — exactly one without faults, never both with an
   injected transient lease-acquire fault in the mix. *)
let race_once path =
  let barrier = Atomic.make 0 in
  let attempt () =
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done;
    Lease.acquire ~path ~owner:(Lease.make_owner ())
  in
  let d1 = Domain.spawn attempt and d2 = Domain.spawn attempt in
  let a = Domain.join d1 and b = Domain.join d2 in
  (a, b)

let test_lease_race_single_winner () =
  reset ();
  let dir = fresh_dir () in
  for i = 1 to 20 do
    let a, b =
      race_once (Filename.concat dir (Printf.sprintf "race-%d.lease" i))
    in
    Alcotest.(check bool) "exactly one winner" true (a <> b)
  done

let test_lease_race_under_faults () =
  reset ();
  Fault.set_spec (Some "lease-acquire:0.5,seed:11");
  let dir = fresh_dir () in
  for i = 1 to 20 do
    let a, b =
      race_once (Filename.concat dir (Printf.sprintf "race-%d.lease" i))
    in
    Alcotest.(check bool) "never both win" false (a && b)
  done;
  Fault.set_spec None

(* ---- planning ---- *)

let test_plan_partitions () =
  List.iter
    (fun (total, shards) ->
      let ranges = Shard.plan ~total ~shards in
      let k = Array.length ranges in
      Alcotest.(check bool) "at least one shard" true (k >= 1);
      Alcotest.(check bool) "at most one shard per point" true
        (k <= max 1 total);
      let pos = ref 0 in
      Array.iter
        (fun (first, len) ->
          Alcotest.(check int) "contiguous" !pos first;
          Alcotest.(check bool) "non-negative length" true (len >= 0);
          pos := !pos + len)
        ranges;
      Alcotest.(check int) "covers the space" total !pos;
      if total > 0 then begin
        let lens = Array.to_list (Array.map snd ranges) in
        let mn = List.fold_left min max_int lens in
        let mx = List.fold_left max 0 lens in
        Alcotest.(check bool) "balanced within one point" true (mx - mn <= 1)
      end)
    [ (0, 1); (0, 4); (1, 4); (5, 3); (12, 5); (5120, 7); (7, 7); (7, 20) ]

(* ---- manifest ---- *)

let manifest ?(seed = 42) ranges =
  {
    Shard.kernel = "atax";
    gpu = "K20";
    n = 64;
    seed;
    ttl = 2.5;
    space;
    ranges;
  }

let test_manifest_roundtrip () =
  reset ();
  let dir = fresh_dir () in
  let m = manifest (Shard.plan ~total ~shards:3) in
  Shard.write_manifest ~dir m;
  match Shard.read_manifest dir with
  | None -> Alcotest.fail "manifest did not round-trip"
  | Some m' ->
      Alcotest.(check string) "kernel" m.Shard.kernel m'.Shard.kernel;
      Alcotest.(check string) "gpu" m.Shard.gpu m'.Shard.gpu;
      Alcotest.(check int) "n" m.Shard.n m'.Shard.n;
      Alcotest.(check int) "seed" m.Shard.seed m'.Shard.seed;
      check_bits "ttl" m.Shard.ttl m'.Shard.ttl;
      Alcotest.(check bool) "space" true (m.Shard.space = m'.Shard.space);
      Alcotest.(check bool) "ranges" true (m.Shard.ranges = m'.Shard.ranges)

let test_manifest_corruption_is_a_miss () =
  reset ();
  let dir = fresh_dir () in
  Shard.write_manifest ~dir (manifest (Shard.plan ~total ~shards:3));
  let path = Filename.concat dir "manifest" in
  let whole = In_channel.with_open_bin path In_channel.input_all in
  let mutated = Bytes.of_string whole in
  Bytes.set mutated (String.length whole / 2) '\255';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc mutated);
  Alcotest.(check bool) "corrupt manifest reads as absent" true
    (Option.is_none (Shard.read_manifest dir))

(* ---- coordinator / worker end to end ---- *)

let test_coordinate_local_equivalence () =
  let clean = golden () in
  reset ();
  let dir = fresh_dir () in
  let r =
    Shard.coordinate ~jobs:2 ~dir ~shards:3 space kernel gpu ~n:64 ~seed:42
  in
  check_report_eq clean r;
  (* The done marker is up, so a late worker exits stale-but-done
     without computing anything. *)
  match Shard.read_manifest dir with
  | None -> Alcotest.fail "coordination left no manifest"
  | Some m ->
      let w = Shard.work ~jobs:2 ~dir m ~kernel ~gpu () in
      Alcotest.(check bool) "stale-but-done" true w.Shard.stale;
      Alcotest.(check int) "no shards computed" 0 w.Shard.shards

let test_worker_does_the_work () =
  let clean = golden () in
  reset ();
  let dir = fresh_dir () in
  let m = manifest (Shard.plan ~total ~shards:4) in
  Shard.write_manifest ~dir m;
  let w = Shard.work ~jobs:2 ~dir m ~kernel ~gpu () in
  Alcotest.(check bool) "worker saw no done marker" false w.Shard.stale;
  Alcotest.(check int) "worker evaluated every point" total w.Shard.points;
  (* The coordinator now only validates and merges the parts. *)
  let r =
    Shard.coordinate ~jobs:2 ~dir ~shards:4 space kernel gpu ~n:64 ~seed:42
  in
  check_report_eq clean r

let test_incompatible_manifest_rejected () =
  reset ();
  let dir = fresh_dir () in
  Shard.write_manifest ~dir (manifest ~seed:7 (Shard.plan ~total ~shards:2));
  match
    Shard.coordinate ~jobs:2 ~dir ~shards:2 space kernel gpu ~n:64 ~seed:42
  with
  | _ -> Alcotest.fail "coordinate accepted a foreign manifest"
  | exception Error.Error e ->
      Alcotest.(check string) "stage" "shard" (Error.stage_name e.Error.stage)

(* ---- merge-time fault injection ---- *)

let test_merge_fault_transient_recovers () =
  let clean = golden () in
  reset ();
  Fault.set_spec (Some "shard-merge:0.5,seed:5");
  let dir = fresh_dir () in
  let r =
    Shard.coordinate ~jobs:2 ~dir ~shards:3 space kernel gpu ~n:64 ~seed:42
  in
  Fault.set_spec None;
  check_report_eq clean r

let test_merge_fault_sticky_exhausts_budget () =
  reset ();
  Fault.set_spec (Some "shard-merge:1:sticky,seed:3");
  let dir = fresh_dir () in
  (match
     Shard.coordinate ~jobs:2 ~dir ~shards:2 space kernel gpu ~n:64 ~seed:42
   with
  | _ -> Alcotest.fail "coordinate survived an always-failing merge"
  | exception Error.Error e ->
      Alcotest.(check string) "stage" "shard" (Error.stage_name e.Error.stage);
      Alcotest.(check int) "exit code" 8 (Error.exit_code e.Error.stage));
  Fault.set_spec None

(* ---- lost leases ---- *)

(* A two-block shard (32 points at [~block:16]) whose lease file is
   removed after its first block, so the second block's heartbeat
   finds no lease and the holder stands down with [Lease_lost]. *)
let lost_space = { space with Space.tc = [ 64; 128; 256; 512 ]; cflags = [ false; true ] }

let lease_lost = Gat_util.Metrics.counter "lease.lost"
let claimed = Gat_util.Metrics.counter "shard.claimed"

(* Remove [dir]'s shard-0 lease the first time a block is reported. *)
let lose_lease_once dir =
  let lost = ref false in
  fun ~done_ ->
    if done_ > 0 && not !lost then (
      lost := true;
      Sys.remove (Filename.concat dir "shard-0.lease"))

let test_coordinator_redoes_lost_shard () =
  reset ();
  let clean = Tuner.sweep_report ~space:lost_space ~jobs:2 kernel gpu ~n:64 ~seed:42 in
  reset ();
  let dir = fresh_dir () in
  let lose = lose_lease_once dir in
  let lost0 = Gat_util.Metrics.value lease_lost in
  let claimed0 = Gat_util.Metrics.value claimed in
  let r =
    Shard.coordinate ~jobs:2 ~block:16 ~dir ~shards:1
      ~progress:(fun ~done_ ~total:_ ~failures:_ ~workers:_ ~reclaimed:_ ->
        lose ~done_)
      lost_space kernel gpu ~n:64 ~seed:42
  in
  check_report_eq clean r;
  Alcotest.(check int) "one lease lost" 1
    (Gat_util.Metrics.value lease_lost - lost0);
  Alcotest.(check int) "the shard was claimed again" 2
    (Gat_util.Metrics.value claimed - claimed0)

let test_worker_stands_down_on_lost_lease () =
  reset ();
  let dir = fresh_dir () in
  let m = { (manifest (Shard.plan ~total:32 ~shards:1)) with Shard.space = lost_space } in
  Shard.write_manifest ~dir m;
  let lose = lose_lease_once dir in
  let lost0 = Gat_util.Metrics.value lease_lost in
  let w =
    Shard.work ~jobs:2 ~block:16 ~dir m ~kernel ~gpu
      ~progress:(fun ~shard:_ ~done_ ~total:_ ~failures:_ -> lose ~done_)
      ()
  in
  Alcotest.(check int) "one lease lost" 1
    (Gat_util.Metrics.value lease_lost - lost0);
  Alcotest.(check int) "the lost claim is not counted" 1 w.Shard.shards;
  Alcotest.(check int) "only the redone shard's points" 32 w.Shard.points

(* ---- prefix-of-parts + salvage merge property ---- *)

(* A dead holder's last heartbeat: its record, holding [shard] with
   prefix [c]. *)
let dead_holder_record ~dir ~shard c =
  let snap =
    {
      Telemetry.host = "dead-host";
      pid = 1;
      anchor_mono_ns = 0L;
      anchor_wall_ns = 0L;
      captured_wall_ns = 0L;
      dropped = 0;
      note = "";
      counters = [];
      timers = [];
      histograms = [];
      hold =
        Some
          {
            Telemetry.shard;
            owner = "dead-host:1:0";
            prefix = Disk_cache.checkpoint_text c;
          };
      events = [];
    }
  in
  let path = Telemetry.snapshot_path ~dir ~host:"dead-host" ~pid:1 in
  let b, log = Telemetry.to_payload snap in
  Out_channel.with_open_bin (Telemetry.events_path path) (fun oc ->
      Out_channel.output_string oc log);
  Gat_util.Sealed_file.seal b;
  Gat_util.Sealed_file.publish ~path b

(* Any subset of pre-published parts, plus a salvaged half-checkpoint
   for one unfinished shard (held in a dead holder's record), must
   merge into a report bit-identical to the uninterrupted sweep: this
   is the crash-recovery invariant — it cannot matter which worker died
   where. *)
let test_prefix_merge_property =
  QCheck.Test.make
    ~name:"any prefix of parts + salvaged partials merges identically"
    ~count:8
    QCheck.(pair (int_bound 7) (int_bound 2))
    (fun (mask, salv) ->
      let clean = golden () in
      reset ();
      let dir = fresh_dir () in
      let ranges = Shard.plan ~total ~shards:3 in
      Shard.write_manifest ~dir (manifest ranges);
      Array.iteri
        (fun i (first, len) ->
          if mask land (1 lsl i) <> 0 then
            Disk_cache.checkpoint_write
              ~path:(Filename.concat dir (Printf.sprintf "shard-%d.part" i))
              (Tuner.sweep_range ~jobs:2 ~space ~first ~len kernel gpu ~n:64
                 ~seed:42))
        ranges;
      let half =
        if mask land (1 lsl salv) <> 0 then 0
        else
          let first, len = ranges.(salv) in
          let half = len / 2 in
          if half > 0 then
            dead_holder_record ~dir ~shard:salv
              (Tuner.sweep_range ~jobs:2 ~space ~first ~len:half kernel gpu
                 ~n:64 ~seed:42);
          half
      in
      let salvaged = Gat_util.Metrics.counter "shard.salvaged_points" in
      let before = Gat_util.Metrics.value salvaged in
      let r =
        Shard.coordinate ~jobs:2 ~dir ~shards:3 space kernel gpu ~n:64
          ~seed:42
      in
      check_report_eq clean r;
      Alcotest.(check int) "the dead holder's prefix was salvaged" half
        (Gat_util.Metrics.value salvaged - before);
      true)

(* A holder that heartbeat a prefix of shard 1, then failed with an
   error: it released its lease on the way out, and its crash dump
   republished its record with the note and the hold.  The holder is
   [fleet_child.exe] (built beside this test), so its record is a
   foreign one; a later coordination salvages its prefix. *)
let test_crashed_holder_salvaged () =
  let clean = golden () in
  reset ();
  let dir = fresh_dir () in
  let ranges = Shard.plan ~total ~shards:3 in
  Shard.write_manifest ~dir (manifest ranges);
  let first, len = ranges.(1) in
  let half = len / 2 in
  let prefix_file = Filename.concat scratch "prefix.txt" in
  Out_channel.with_open_bin prefix_file (fun oc ->
      Out_channel.output_string oc
        (Disk_cache.checkpoint_text
           (Tuner.sweep_range ~jobs:2 ~space ~first ~len:half kernel gpu ~n:64
              ~seed:42)));
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "fleet_child.exe"
  in
  let child =
    Unix.create_process exe
      [| exe; dir; "1"; prefix_file; "crash" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] child with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "the holder did not heartbeat and crash");
  (match Telemetry.load_dir ~header_only:true dir with
  | [ r ], 0 ->
      Alcotest.(check string) "the record carries the crash"
        "internal error: boom" r.Telemetry.note;
      Alcotest.(check bool) "and the hold" true (r.Telemetry.hold <> None)
  | l, _ -> Alcotest.failf "expected the holder's record, got %d" (List.length l));
  let salvaged = Gat_util.Metrics.counter "shard.salvaged_points" in
  let before = Gat_util.Metrics.value salvaged in
  let r =
    Shard.coordinate ~jobs:2 ~dir ~shards:3 space kernel gpu ~n:64 ~seed:42
  in
  check_report_eq clean r;
  Alcotest.(check int) "the crashed holder's prefix was salvaged" half
    (Gat_util.Metrics.value salvaged - before)

(* ---- maintenance: gc pinning ---- *)

let test_gc_pins_live_coordinations () =
  reset ();
  let dir = Filename.concat (Filename.concat scratch "shards") "gc-test" in
  Gat_util.Cache_dir.ensure dir;
  Shard.write_manifest ~dir (manifest (Shard.plan ~total ~shards:2));
  let lease = Filename.concat dir "shard-0.lease" in
  let owner = Lease.make_owner () in
  Alcotest.(check bool) "acquired" true
    (Lease.acquire ~path:lease ~owner);
  let in_dir f = Filename.dirname f = dir in
  Alcotest.(check bool) "live-lease dir is pinned" false
    (List.exists in_dir (Shard.gc_candidates ()));
  let u = Shard.usage () in
  Alcotest.(check bool) "usage counts the live lease" true
    (u.Shard.live_leases >= 1);
  Alcotest.(check bool) "pinned bytes accounted" true
    (u.Shard.pinned_bytes > 0);
  Lease.release ~path:lease ~owner;
  Alcotest.(check bool) "released dir becomes evictable" true
    (List.exists in_dir (Shard.gc_candidates ()));
  Alcotest.(check bool) "clear removes shard dirs" true (Shard.clear () > 0);
  Alcotest.(check bool) "dir gone" false (Sys.file_exists dir)

(* A process's events log is coordination state like its record:
   [gat cache stats] counts its bytes, and gc and clear remove it. *)
let test_events_logs_are_cache_files () =
  reset ();
  let dir = Filename.concat (Filename.concat scratch "shards") "events-test" in
  Gat_util.Cache_dir.ensure dir;
  Shard.write_manifest ~dir (manifest (Shard.plan ~total ~shards:2));
  let record = record_in dir in
  let log = Telemetry.events_path record in
  let session () =
    with_session dir (fun () ->
        Gat_util.Trace.span "events-test" (fun () -> ());
        Telemetry.flush ());
    Alcotest.(check bool) "the flush wrote a log" true
      (Sys.file_exists log && (Unix.stat log).Unix.st_size > 0)
  in
  let before = (Shard.usage ()).Shard.bytes in
  session ();
  let size f = (Unix.stat f).Unix.st_size in
  Alcotest.(check int) "usage counts the record and its log"
    (size record + size log)
    ((Shard.usage ()).Shard.bytes - before);
  Alcotest.(check bool) "the log is a gc candidate" true
    (List.mem log (Shard.gc_candidates ()));
  ignore (Gat_tuner.Artifact_store.gc ~max_bytes:0);
  Alcotest.(check bool) "gc removed the log" false (Sys.file_exists log);
  Gat_util.Cache_dir.ensure dir;
  session ();
  Alcotest.(check bool) "clear removes files" true (Shard.clear () > 0);
  Alcotest.(check bool) "clear removed the log" false (Sys.file_exists log)

(* ---- exit-code contract ---- *)

let test_shard_stage_exit_code () =
  Alcotest.(check int) "Shard exits 8" 8 (Error.exit_code Error.Shard);
  Alcotest.(check string) "stage name" "shard" (Error.stage_name Error.Shard)

(* ---- cleanup ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let cleanup () =
  Fault.set_spec None;
  Gat_util.Cancel.reset ();
  Gat_util.Store.set_enabled Disk_cache.cache true;
  Gat_util.Store.reset_degraded Disk_cache.cache;
  rm_rf scratch

let () =
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "gat_shard"
        [
          ( "lease",
            [
              Alcotest.test_case "roundtrip" `Quick test_lease_roundtrip;
              Alcotest.test_case "expiry and takeover" `Quick
                test_lease_expiry_takeover;
              Alcotest.test_case "holder record is the heartbeat" `Quick
                test_lease_record_heartbeat;
              Alcotest.test_case "corrupt body gets mtime grace" `Quick
                test_lease_corrupt_grace;
              Alcotest.test_case "renew fault is soft" `Quick
                test_renew_soft_failure_keeps_lease;
              Alcotest.test_case "race has a single winner" `Quick
                test_lease_race_single_winner;
              Alcotest.test_case "race under faults never double-grants"
                `Quick test_lease_race_under_faults;
            ] );
          ( "plan",
            [ Alcotest.test_case "partitions the space" `Quick
                test_plan_partitions ] );
          ( "manifest",
            [
              Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
              Alcotest.test_case "corruption is a miss" `Quick
                test_manifest_corruption_is_a_miss;
            ] );
          ( "coordinate",
            [
              Alcotest.test_case "local run equals plain sweep" `Quick
                test_coordinate_local_equivalence;
              Alcotest.test_case "worker-computed parts merge" `Quick
                test_worker_does_the_work;
              Alcotest.test_case "incompatible manifest rejected" `Quick
                test_incompatible_manifest_rejected;
              Alcotest.test_case "transient merge faults recover" `Quick
                test_merge_fault_transient_recovers;
              Alcotest.test_case "sticky merge faults exhaust the budget"
                `Quick test_merge_fault_sticky_exhausts_budget;
              Alcotest.test_case "lost lease: coordinator redoes the shard"
                `Quick test_coordinator_redoes_lost_shard;
              Alcotest.test_case "lost lease: worker stands down" `Quick
                test_worker_stands_down_on_lost_lease;
              QCheck_alcotest.to_alcotest test_prefix_merge_property;
              Alcotest.test_case "crashed holder's prefix is salvaged" `Quick
                test_crashed_holder_salvaged;
            ] );
          ( "maintenance",
            [
              Alcotest.test_case "gc pins live coordinations" `Quick
                test_gc_pins_live_coordinations;
              Alcotest.test_case "events logs are cache files" `Quick
                test_events_logs_are_cache_files;
            ] );
          ( "exit-codes",
            [
              Alcotest.test_case "shard stage exits 8" `Quick
                test_shard_stage_exit_code;
            ] );
        ])
