(* Distributed fault-tolerant sweep sharding.

   One sweep's variant space is partitioned into K contiguous ranges
   (shards) under a content-keyed directory shared through the cache
   root.  A coordinator writes the sealed manifest and then drives the
   sweep to completion; any number of workers (same machine or any
   machine sharing [GAT_CACHE_DIR]) attach to the directory, claim
   shards through write-once lease files ({!Gat_util.Lease}) and
   publish their finished ranges as sealed partial checkpoints.  Every
   piece of shared state is published by atomic rename, so a SIGKILL
   at any instant leaves either the old file or the new one — never a
   torn read.

   Crash tolerance is lease-based: after every block a holder
   publishes its telemetry record, which holds the shard's flushed
   prefix and whose mtime is the lease heartbeat (its trace events go
   to a separate events log the salvage never reads), so a dead worker's
   lease expires within one TTL and any observer may break it and take
   over — resuming from the dead worker's prefix, not from scratch.
   Breaking is advisory (two holders can briefly coexist); that is
   safe here because evaluation is deterministic per point, so
   duplicate holders publish byte-identical parts and the atomic
   rename makes either one a correct answer.

   The merge validates every part against its MD5 seal and its
   range length, re-checks that the ranges partition the space, and
   concatenates in shard order — producing a report byte-identical to
   the single-process sweep by construction. *)

open Gat_util

let manifest_magic = "gat-shard-manifest 1"
let done_magic = "gat-shard-done 1"
let default_ttl = 30.

let m_planned = Metrics.counter "shard.planned"
let m_claimed = Metrics.counter "shard.claimed"
let m_completed = Metrics.counter "shard.completed"
let m_parts_merged = Metrics.counter "shard.parts_merged"
let m_reclaimed = Metrics.counter "shard.leases_reclaimed"
let m_salvaged = Metrics.counter "shard.salvaged_points"
let m_stale_done = Metrics.counter "shard.stale_done"

type manifest = {
  kernel : string;
  gpu : string;
  n : int;
  seed : int;
  ttl : float;
  space : Space.t;
  ranges : (int * int) array;
}

exception Lease_lost of int

(* ---- layout ---- *)

let shards_root () = Filename.concat (Cache_dir.root ()) "shards"

let default_dir space kernel gpu ~n ~seed =
  Filename.concat (shards_root ()) (Disk_cache.key space kernel gpu ~n ~seed)

let manifest_file dir = Filename.concat dir "manifest"
let done_file dir = Filename.concat dir "done"
let lease_file dir i = Filename.concat dir (Printf.sprintf "shard-%d.lease" i)
let part_file dir i = Filename.concat dir (Printf.sprintf "shard-%d.part" i)

(* ---- planning ---- *)

let plan ~total ~shards =
  let k = max 1 (min shards (max 1 total)) in
  let base = total / k and rem = total mod k in
  Array.init k (fun i ->
      ((base * i) + min i rem, base + if i < rem then 1 else 0))

(* ---- manifest serialization (sealed, atomic) ---- *)

let ints l = String.concat " " (List.map string_of_int l)

let bools l =
  String.concat " " (List.map (fun b -> if b then "1" else "0") l)

let write_manifest ~dir m =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "%s" manifest_magic;
  line "model %s" Disk_cache.model_version;
  line "kernel %s" m.kernel;
  line "gpu %s" m.gpu;
  line "n %d" m.n;
  line "seed %d" m.seed;
  line "ttl %h" m.ttl;
  line "tc %s" (ints m.space.Space.tc);
  line "bc %s" (ints m.space.Space.bc);
  line "uif %s" (ints m.space.Space.uif);
  line "pl %s" (ints m.space.Space.pl);
  line "sc %s" (ints m.space.Space.sc);
  line "cflags %s" (bools m.space.Space.cflags);
  line "shards %d" (Array.length m.ranges);
  Array.iter (fun (first, len) -> line "range %d %d" first len) m.ranges;
  Sealed_file.seal buf;
  Sealed_file.publish ~path:(manifest_file dir) buf

let strip prefix line =
  let lp = String.length prefix in
  if String.length line >= lp && String.sub line 0 lp = prefix then
    String.sub line lp (String.length line - lp)
  else raise Exit

let parse_manifest body =
  match String.split_on_char '\n' body with
  | magic :: model :: kernel :: gpu :: n :: seed :: ttl :: tc :: bc :: uif
    :: pl :: sc :: cflags :: shards :: rest -> (
      try
        if magic <> manifest_magic then raise Exit;
        if strip "model " model <> Disk_cache.model_version then raise Exit;
        let axis name l =
          List.map int_of_string (String.split_on_char ' ' (strip name l))
        in
        let space =
          {
            Space.tc = axis "tc " tc;
            bc = axis "bc " bc;
            uif = axis "uif " uif;
            pl = axis "pl " pl;
            sc = axis "sc " sc;
            cflags =
              List.map
                (fun s -> s = "1")
                (String.split_on_char ' ' (strip "cflags " cflags));
          }
        in
        let k = int_of_string (strip "shards " shards) in
        if k <= 0 then raise Exit;
        let ranges = Array.make k (0, 0) in
        let rec ranges_of i = function
          | ([] | [ "" ]) when i = k -> ()
          | l :: tl when i < k ->
              (match String.split_on_char ' ' (strip "range " l) with
              | [ a; b ] -> ranges.(i) <- (int_of_string a, int_of_string b)
              | _ -> raise Exit);
              ranges_of (i + 1) tl
          | _ -> raise Exit
        in
        ranges_of 0 rest;
        Some
          {
            kernel = strip "kernel " kernel;
            gpu = strip "gpu " gpu;
            n = int_of_string (strip "n " n);
            seed = int_of_string (strip "seed " seed);
            ttl = float_of_string (strip "ttl " ttl);
            space;
            ranges;
          }
      with Exit | Failure _ -> None)
  | _ -> None

let read_manifest dir =
  Option.bind (Sealed_file.read (manifest_file dir)) parse_manifest

(* ---- shard-level operations ---- *)

(* Reading a part at merge time is a fault site of its own
   ([shard-merge]): an injected fault or a damaged/mismatched part
   reads as absent, so the shard is simply redone. *)
let try_read_part dir i ~len =
  let path = part_file dir i in
  match
    Fault.inject ~site:"shard-merge" ~key:(Filename.basename path);
    Disk_cache.checkpoint_read path
  with
  | Some c when c.Disk_cache.done_points = len -> Some c
  | _ -> None
  | exception Fault.Injected _ -> None

(* Callers have seen no part for shard [i].  An expired lease is
   broken first, so a dead holder's shard is claimable at once. *)
let try_claim ~log ~dir ~ttl ~owner i =
  let lease = lease_file dir i in
  if Lease.break_if_expired ~ttl lease then (
    Metrics.incr m_reclaimed;
    Trace.instant ~args:[ ("shard", Trace.I i) ] "shard.reclaim";
    log (Printf.sprintf "shard %d: reclaimed expired lease" i));
  Lease.acquire ~path:lease ~owner

let dir_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names -> Array.to_list names |> List.map (Filename.concat dir)

(* The longest prefix of shard [i] that fits its range among the
   foreign records holding it (header-only reads, seals checked; the
   events logs are never opened). *)
let salvage dir i ~len =
  let own =
    Telemetry.snapshot_path ~dir ~host:(Unix.gethostname ()) ~pid:(Unix.getpid ())
  in
  List.filter (fun f -> Telemetry.is_telem_file f && f <> own) (dir_files dir)
  |> List.filter_map (fun f ->
         match Telemetry.read_file ~header_only:true f with
         | Some { hold = Some h; _ } when h.shard = i ->
             Disk_cache.checkpoint_of_text h.prefix
         | _ -> None)
  |> List.filter (fun c -> c.Disk_cache.done_points > 0 && c.done_points <= len)
  |> List.sort (fun a b -> compare b.Disk_cache.done_points a.done_points)
  |> function c :: _ -> Some c | [] -> None

(* One record per process holds one shard: evaluate one at a time. *)
let holding = Atomic.make false

(* Evaluate one claimed shard to completion: salvage a previous
   holder's prefix, publish our record with our own after every block,
   and publish the finished range as a sealed [.part].  The lease is
   always released on the way out — including on interrupt, so the
   prefix in our record is immediately claimable. *)
let eval_shard ?jobs ?retries ?max_failures ?block ~dir ~owner ~manifest:m
    ~kernel ~gpu ~on_block i =
  if not (Atomic.compare_and_set holding false true) then
    invalid_arg "Shard: this process already holds a shard";
  Fun.protect ~finally:(fun () -> Atomic.set holding false) @@ fun () ->
  let first, len = m.ranges.(i) in
  let init = salvage dir i ~len in
  Option.iter (fun c -> Metrics.incr ~by:c.Disk_cache.done_points m_salvaged) init;
  let lease = lease_file dir i in
  let flush c =
    let hold =
      { Telemetry.shard = i; owner; prefix = Disk_cache.checkpoint_text c }
    in
    if not (Lease.heartbeat ~path:lease hold) then raise (Lease_lost i);
    on_block ~done_:c.Disk_cache.done_points
      ~failures:(List.length c.Disk_cache.failures)
  in
  try
    let part =
      Trace.span ~args:[ ("shard", Trace.I i) ] "shard.eval" (fun () ->
          Tuner.sweep_range ?jobs ?retries ?max_failures ?block ~flush ?init
            ~interrupt_note:"; shard checkpoint saved" ~space:m.space ~first
            ~len kernel gpu ~n:m.n ~seed:m.seed)
    in
    Disk_cache.checkpoint_write ~path:(part_file dir i) part;
    Lease.release ~path:lease ~owner;
    Metrics.incr m_completed
  with e ->
    Lease.release ~path:lease ~owner;
    raise e

let publish_done dir =
  let buf = Buffer.create 32 in
  Buffer.add_string buf done_magic;
  Buffer.add_char buf '\n';
  Sealed_file.seal buf;
  try Sealed_file.publish ~path:(done_file dir) buf with Sys_error _ -> ()

(* Live leases under [dir] not held by [owner]. *)
let live_leases ?(owner = "") ~ttl dir =
  List.length
    (List.filter
       (fun f ->
         Filename.check_suffix f ".lease"
         && (match Lease.read f with Some i -> i.Lease.owner <> owner | None -> true)
         && Lease.live ~ttl f)
       (dir_files dir))

(* The one claim loop of coordinators and workers.  Until [stop ()]
   holds: claim the first shard without a part whose lease this
   process can take, evaluate it, and tell [on_claim] how the claim
   ended; when nothing is claimable, poll again after 50 ms. *)
let drain ?jobs ?retries ?max_failures ?block ?(log = ignore) ~dir ~owner
    ~manifest:m ~kernel ~gpu ~stop ~on_block ~on_claim () =
  let k = Array.length m.ranges in
  let rec claimable i =
    if i = k then None
    else if
      (not (Sys.file_exists (part_file dir i)))
      && try_claim ~log ~dir ~ttl:m.ttl ~owner i
    then Some i
    else claimable (i + 1)
  in
  while not (stop ()) do
    if Cancel.requested () then
      Error.failf Interrupted "sweep interrupted; shard state saved under %s"
        dir;
    match claimable 0 with
    | None -> Unix.sleepf 0.05
    | Some i ->
        Metrics.incr m_claimed;
        on_claim i
          (match
             eval_shard ?jobs ?retries ?max_failures ?block ~dir ~owner
               ~manifest:m ~kernel ~gpu ~on_block:(on_block i) i
           with
          | () -> `Done
          | exception Lease_lost _ -> `Lost)
  done

(* ---- coordinator ---- *)

(* Attempts a coordinator gives one shard (lost leases and damaged
   parts) before it aborts. *)
let shard_attempts = 5

let coordinate ?jobs ?retries ?max_failures ?block ?(ttl = default_ttl)
    ?progress ?(log = ignore) ?dir ~shards space kernel gpu ~n ~seed =
  match Disk_cache.find space kernel gpu ~n ~seed with
  | Some (variants, unsafe) ->
      { Tuner.variants; failures = []; unsafe; restored_points = 0 }
  | None ->
      let total = Space.cardinality space in
      let dir =
        match dir with
        | Some d -> d
        | None -> default_dir space kernel gpu ~n ~seed
      in
      Cache_dir.ensure dir;
      let fresh =
        {
          kernel = kernel.Gat_ir.Kernel.name;
          gpu = gpu.Gat_arch.Gpu.name;
          n;
          seed;
          ttl;
          space;
          ranges = plan ~total ~shards;
        }
      in
      let m =
        match read_manifest dir with
        | Some existing ->
            if
              existing.kernel <> fresh.kernel
              || existing.gpu <> fresh.gpu
              || existing.n <> n || existing.seed <> seed
              || existing.space <> space
            then
              Error.failf Shard
                ~hint:
                  "point --coordinator at an empty directory, or let gat \
                   derive one under the cache root"
                "shard directory %s already coordinates a different sweep \
                 (%s on %s, n=%d, seed=%d)"
                dir existing.kernel existing.gpu existing.n existing.seed;
            existing
        | None ->
            if Sys.file_exists (manifest_file dir) then
              Error.failf Shard "unreadable shard manifest under %s" dir;
            (try write_manifest ~dir fresh
             with Sys_error msg ->
               Error.failf Shard "cannot write shard manifest: %s" msg);
            fresh
      in
      Telemetry.enable ~dir;
      (* Attach snapshot: the coordinator is visible to [gat monitor]
         (and to the merge) even if it dies before its first block. *)
      Telemetry.flush ();
      (* A done marker left by a previous completed coordination would
         stop fresh workers from attaching; this run owns the
         directory now. *)
      (try Sys.remove (done_file dir) with Sys_error _ -> ());
      let k = Array.length m.ranges in
      let cover = Array.fold_left (fun a (_, l) -> a + l) 0 m.ranges in
      let contiguous =
        let pos = ref 0 and ok = ref true in
        Array.iter
          (fun (f, l) ->
            if f <> !pos || l < 0 then ok := false;
            pos := !pos + l)
          m.ranges;
        !ok
      in
      if cover <> total || not contiguous then
        Error.failf Shard
          "shard manifest ranges do not partition the %d-point space" total;
      Metrics.incr ~by:k m_planned;
      let owner = Lease.make_owner () in
      let parts : Disk_cache.checkpoint option array = Array.make k None in
      let attempts = Array.make k 0 in
      let reclaimed0 = Metrics.value m_reclaimed in
      let local_done = ref 0 and local_failures = ref 0 in
      let sum f = Array.fold_left (fun a p -> a + f p) 0 parts in
      let report_progress () =
        match progress with
        | None -> ()
        | Some f ->
            f
              ~done_:
                (!local_done
                + sum (function
                    | Some c -> c.Disk_cache.done_points
                    | None -> 0))
              ~total
              ~failures:
                (!local_failures
                + sum (function
                    | Some c -> List.length c.Disk_cache.failures
                    | None -> 0))
              ~workers:(live_leases ~owner ~ttl:m.ttl dir)
              ~reclaimed:(Metrics.value m_reclaimed - reclaimed0)
      in
      (* A shard whose part keeps arriving damaged, or whose lease this
         process keeps losing, exhausts its budget and aborts the
         coordination. *)
      let failed i =
        attempts.(i) <- attempts.(i) + 1;
        if attempts.(i) > shard_attempts then
          Error.failf Shard
            ~hint:"inspect the shard directory, or remove it and re-run"
            "shard %d exhausted its retry budget (%d attempts)" i
            attempts.(i)
      in
      (* Merge every newly published part, this process's own included;
         a damaged or mismatched part is removed, so the loop redoes
         it. *)
      let merged () =
        Array.iteri
          (fun i p ->
            if Option.is_none p && Sys.file_exists (part_file dir i) then
              match try_read_part dir i ~len:(snd m.ranges.(i)) with
              | Some c ->
                  parts.(i) <- Some c;
                  Metrics.incr m_parts_merged;
                  report_progress ()
              | None ->
                  (try Sys.remove (part_file dir i) with Sys_error _ -> ());
                  failed i)
          parts;
        Array.for_all Option.is_some parts
      in
      report_progress ();
      drain ?jobs ?retries ?max_failures ?block ~log ~dir ~owner ~manifest:m
        ~kernel ~gpu ~stop:merged
        ~on_block:(fun _ ~done_ ~failures ->
          local_done := done_;
          local_failures := failures;
          report_progress ())
        ~on_claim:(fun i outcome ->
          local_done := 0;
          local_failures := 0;
          if outcome = `Lost then failed i)
        ();
      let report =
        Trace.span "shard.merge" (fun () ->
            let parts_l =
              Array.to_list parts
              |> List.map (function Some c -> c | None -> assert false)
            in
            let variants =
              List.concat_map (fun c -> c.Disk_cache.variants) parts_l
            in
            let failures =
              List.concat_map (fun c -> c.Disk_cache.failures) parts_l
            in
            let unsafe =
              List.concat_map (fun c -> c.Disk_cache.unsafe) parts_l
            in
            if failures = [] then
              Disk_cache.store space kernel gpu ~n ~seed variants unsafe;
            publish_done dir;
            report_progress ();
            { Tuner.variants; failures; unsafe; restored_points = 0 })
      in
      (* Fleet telemetry epilogue.  Order matters: publish this
         process's own (purely local) final snapshot first, then fold
         foreign workers' counters and histograms into the live
         registries — so the final [gat stats] is fleet-wide while
         the on-disk snapshots stay per-process and sum cleanly.
         Header-only reads: nothing here needs the events, so no
         events log is opened. *)
      Telemetry.flush ();
      let snaps, skipped = Telemetry.load_dir ~header_only:true dir in
      Telemetry.absorb_foreign snaps;
      if skipped > 0 then
        log (Printf.sprintf "%d corrupt telemetry snapshot(s) skipped" skipped);
      List.iter
        (fun (c : Telemetry.snapshot) ->
          if c.note <> "" then
            log (Printf.sprintf "crash flight record of %s:%d: %s" c.host c.pid c.note))
        snaps;
      report

(* ---- worker ---- *)

type worker_report = { shards : int; points : int; stale : bool }

let work ?jobs ?retries ?block ?progress ~dir m ~kernel ~gpu () =
  Telemetry.enable ~dir;
  (* Attach snapshot: a worker SIGKILLed before its first block
     still left one flushed snapshot for the fleet merge. *)
  Telemetry.flush ();
  let k = Array.length m.ranges in
  let shards_done = ref 0 and points_done = ref 0 and stale = ref false in
  let rec parts_from i =
    i = k || (Sys.file_exists (part_file dir i) && parts_from (i + 1))
  in
  let finished () =
    if Sys.file_exists (done_file dir) then (
      (* The coordinator finished (possibly while we were computing a
         shard someone else also finished): clean success. *)
      Metrics.incr m_stale_done;
      stale := true;
      true)
    else parts_from 0
  in
  drain ?jobs ?retries ?block ~dir ~owner:(Lease.make_owner ()) ~manifest:m
    ~kernel ~gpu ~stop:finished
    ~on_block:(fun i ~done_ ~failures ->
      Option.iter
        (fun f -> f ~shard:i ~done_ ~total:(snd m.ranges.(i)) ~failures)
        progress)
    ~on_claim:(fun i -> function
      | `Done ->
          incr shards_done;
          points_done := !points_done + snd m.ranges.(i)
      | `Lost -> ())
    ();
  Telemetry.flush ();
  { shards = !shards_done; points = !points_done; stale = !stale }

(* ---- maintenance (gat cache stats / gc / clear) ---- *)

let shard_dirs () =
  let root = shards_root () in
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.map (Filename.concat root)
      |> List.filter Sys.is_directory

let live_lease_count dir =
  live_leases dir
    ~ttl:(match read_manifest dir with Some m -> m.ttl | None -> default_ttl)

let gc_candidates () =
  List.concat_map
    (fun d -> if live_lease_count d = 0 then dir_files d else [])
    (shard_dirs ())

type usage = {
  dirs : int;
  files : int;
  bytes : int;
  live_leases : int;
  pinned_bytes : int;
  telem_files : int;
}

let usage () =
  List.fold_left
    (fun acc d ->
      let files = dir_files d in
      let live = live_lease_count d in
      let b =
        List.fold_left
          (fun a f ->
            match Unix.stat f with
            | st -> a + st.Unix.st_size
            | exception Unix.Unix_error _ -> a)
          0 files
      in
      {
        dirs = acc.dirs + 1;
        files = acc.files + List.length files;
        bytes = acc.bytes + b;
        live_leases = acc.live_leases + live;
        pinned_bytes = (acc.pinned_bytes + if live > 0 then b else 0);
        telem_files =
          acc.telem_files + List.length (List.filter Telemetry.is_telem_file files);
      })
    {
      dirs = 0;
      files = 0;
      bytes = 0;
      live_leases = 0;
      pinned_bytes = 0;
      telem_files = 0;
    }
    (shard_dirs ())

let clear () =
  List.fold_left
    (fun acc d ->
      let removed =
        List.fold_left
          (fun a f ->
            match Sys.remove f with
            | () -> a + 1
            | exception Sys_error _ -> a)
          0 (dir_files d)
      in
      (try Unix.rmdir d with Unix.Unix_error _ -> ());
      acc + removed)
    0 (shard_dirs ())
