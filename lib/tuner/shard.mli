(** Distributed fault-tolerant sweep sharding.

    One sweep's variant space, partitioned into K contiguous ranges
    coordinated through a shared directory (by default content-keyed
    under [<cache-root>/shards/]): a {e coordinator}
    ([gat sweep --shards K]) writes the sealed manifest, supervises
    shards to completion and merges the parts; {e workers}
    ([gat sweep-worker DIR]) — any process on any machine sharing
    [GAT_CACHE_DIR] — claim shards through write-once lease files and
    publish finished ranges as sealed partial checkpoints.

    Directory layout ([DESIGN.md] §5.9):
    {v
    manifest           sealed: kernel/gpu/n/seed/ttl, space axes, ranges
    shard-<i>.lease    Gat_util.Lease — who claimed shard i (written once)
    shard-<i>.part     finished shard — a range-relative checkpoint
    <host>.<pid>.telem Gat_util.Telemetry record: held shard, its prefix;
                       its mtime is the lease heartbeat
    <host>.<pid>.events a traced process's trace events, one batch per
                       flush (an untraced process has none)
    done               coordinator finished; workers exit 0
    v}

    Invariants:
    - every shared file is published by atomic rename (or [O_EXCL])
      and MD5-sealed, so SIGKILL at any instant leaves whole files;
    - a holder's one per-block sealed write is its record, carrying
      both the flushed prefix and the heartbeat, so a live lease
      implies fresh progress and a dead worker is detected within one
      TTL (a traced holder's block events go to its events log
      first);
    - a process holds one shard at a time (a second concurrent hold
      raises [Invalid_argument]), so one record per process suffices;
    - evaluation is deterministic per point, so a reclaimed shard —
      even one briefly evaluated by two holders — publishes a
      byte-identical part, and the merged report equals the
      single-process sweep byte for byte.

    Metrics: [shard.planned], [shard.claimed], [shard.completed],
    [shard.parts_merged], [shard.leases_reclaimed],
    [shard.salvaged_points], [shard.stale_done]; trace spans
    [shard.eval] / [shard.merge] and instants [shard.reclaim]. *)

type manifest = {
  kernel : string;  (** Kernel name (resolved by the CLI on attach). *)
  gpu : string;  (** Device name. *)
  n : int;
  seed : int;
  ttl : float;  (** Lease time-to-live, seconds. *)
  space : Space.t;
  ranges : (int * int) array;  (** Per-shard [(first, len)] ranges. *)
}

val default_ttl : float
(** Default lease time-to-live (seconds) for new coordinations; also
    the observer-side assumption when a manifest is unreadable. *)

exception Lease_lost of int
(** Raised inside a shard evaluation when the per-block heartbeat
    finds the lease file gone or naming another owner; the holder
    abandons the shard (the prefix in its record survives for the new
    holder to salvage). *)

val default_dir :
  Space.t -> Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> n:int -> seed:int -> string
(** The content-keyed coordination directory for this sweep:
    [<cache-root>/shards/<Disk_cache.key>]. *)

val plan : total:int -> shards:int -> (int * int) array
(** Partition [total] points into at most [shards] contiguous
    [(first, len)] ranges differing in length by at most one; clamps
    to at least one shard and at most one shard per point. *)

val read_manifest : string -> manifest option
(** The sealed manifest under this directory, read with
    {!Gat_util.Store}'s cursor after a {!Disk_cache.header}; [None]
    when absent, torn, corrupt, sealed by a different
    {!Disk_cache.model_version}, or when its ranges do not partition
    its space (contiguous from 0, none negative, covering
    {!Space.cardinality}). *)

val manifest_file : string -> string
(** The manifest's path under a directory. *)

val write_manifest : dir:string -> manifest -> unit
(** Atomically publish the sealed manifest (normally the coordinator's
    job; exposed for tests and external orchestration).
    @raise Sys_error on I/O failure. *)

val done_file : string -> string
(** The completion marker's path (the CLI checks it for the
    stale-but-done worker exit). *)

val coordinate :
  ?jobs:int ->
  ?retries:int ->
  ?max_failures:int ->
  ?block:int ->
  ?ttl:float ->
  ?progress:
    (done_:int ->
    total:int ->
    failures:int ->
    workers:int ->
    reclaimed:int ->
    unit) ->
  ?log:(string -> unit) ->
  ?dir:string ->
  shards:int ->
  Space.t ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  Tuner.report
(** Run one sweep to completion as a sharded coordination, through
    the sweep cache's tiers ({!Tuner.cached}): a sweep held in memory
    or on disk is returned at once, touching no directory.  Otherwise
    it writes (or adopts — same kernel/gpu/n/seed/space, else stage
    [Shard], as for an unreadable one) the manifest, then runs the
    same claim loop as {!work}: claim the first shard without a part
    whose lease it can take (breaking expired leases on the way,
    [shard.leases_reclaimed]) and evaluate it, polling every 50 ms
    while nothing is claimable — so a coordinator with no workers
    degrades gracefully to an ordinary in-process sweep.  Before each
    claim it merges every newly published part, its own included
    (validated against its seal and range length; a damaged part is
    removed and redone).  A lost lease or a damaged part costs the
    shard one of its 5 attempts; an exhausted budget aborts with
    stage [Shard].  Breaking a lease costs no attempt.

    The merged report is byte-identical to {!Tuner.sweep_report} of
    the same sweep, and is cached exactly like it: it enters the
    in-process memo and, when it has no failures, {!Disk_cache}.  The
    [done] marker is published so late workers exit cleanly.

    [max_failures] is enforced per shard (each range fails fast past
    the budget, stage [Tune]).  [progress] additionally reports the
    number of live foreign worker leases and leases reclaimed so far.

    Observability: the coordination runs a {!Gat_util.Telemetry}
    session in [dir] — every holder (this process and each worker)
    republishes its sealed [<host>.<pid>.telem] record after every
    block and on exit; a holder started with [--trace] first writes
    only the block's new trace events to its [<host>.<pid>.events]
    log.  After the merge the coordinator folds every
    worker's counters and histograms into the live registries so the
    final [gat stats] is fleet-wide.  [log]
    (default: drop) receives one line per reclaimed lease, per prefix
    salvaged from an earlier holder ("shard N: resumed from P
    salvaged points"), per skipped corrupt snapshot, and per record in
    the directory that carries a note (["HOST:PID stopped early:
    NOTE"]: a process that crashed, was killed by SIGTERM or was
    interrupted).
    @raise Gat_util.Error.Error (stage [Interrupted]) between blocks
    and between shards when {!Gat_util.Cancel.requested} fires; all
    flushed shard state survives for a later re-run. *)

type worker_report = {
  shards : int;  (** Shards this worker completed. *)
  points : int;  (** Points those shards contained. *)
  stale : bool;  (** The coordinator had already finished on attach. *)
}

val work :
  ?jobs:int ->
  ?retries:int ->
  ?block:int ->
  ?progress:(shard:int -> done_:int -> total:int -> failures:int -> unit) ->
  ?log:(string -> unit) ->
  dir:string ->
  manifest ->
  kernel:Gat_ir.Kernel.t ->
  gpu:Gat_arch.Gpu.t ->
  unit ->
  worker_report
(** Attach to a coordination directory and run the claim loop of
    {!coordinate} until every shard has a part, or until the [done]
    marker appears ([stale = true] — the stale-but-done race is a
    clean success, exit 0).  A worker never gives up on a shard: a
    lost lease just sends it back to the loop.  The caller resolves [kernel]/[gpu] from the
    manifest's names and must pass the same objects the coordinator
    used.  [progress] reports the in-flight shard's index and
    range-relative progress ([total] is that shard's length).  [log]
    receives the claim loop's lines, as {!coordinate}'s does: a
    reclaimed expired lease and a resume from salvaged points.
    @raise Gat_util.Error.Error (stage [Interrupted]) on cancel. *)

(** {1 Maintenance} — [gat cache stats] / [gc] / [clear].

    Shard directories holding at least one live lease are {e pinned}:
    their lease files, parts and telemetry records (with the in-flight
    prefixes and crash notes they hold) are all invisible to
    {!gc_candidates}, so [gat cache gc] never yanks state — or
    evidence — from under a running coordination.  Directories with
    no live lease (finished or crashed-and-expired runs) are
    evictable. *)

val gc_candidates : unit -> string list
(** Every file of every unpinned shard directory. *)

type usage = {
  dirs : int;
  files : int;
  bytes : int;
  live_leases : int;
  pinned_bytes : int;  (** Bytes in directories with a live lease. *)
  telem_files : int;  (** Telemetry records across shard dirs. *)
}

val usage : unit -> usage

val clear : unit -> int
(** Remove every shard directory (pinned or not) and the files inside;
    returns the number of files removed. *)
