(** Persistent cross-run sweep cache.

    The in-process sweep cache in {!Tuner} dies with the process, so
    every [gat] invocation repeats the full compile-and-simulate sweep
    even when nothing changed.  This module stores finished sweep
    results on disk — one file per (kernel, device, space, size, seed)
    under [GAT_CACHE_DIR] (default [$XDG_CACHE_HOME/gat], falling back
    to [~/.cache/gat]) — and {!Tuner.sweep} consults it before
    compiling anything.

    Correctness model:
    - {b Content-hash keys.}  The file name is the MD5 of the kernel
      source rendering, the device description (every model-relevant
      hardware limit), the parameter space, the input size, the
      measurement seed and {!model_version}.  Anything that could
      change a sweep's result changes the key, so stale entries are
      never read — they are simply unreachable.
    - {b Exact round-trip.}  Payloads are text with hexadecimal float
      literals, so a cached {!Variant.t} list is bit-identical to the
      freshly computed one.
    - {b Crash safety.}  Entries are written to a temp file and
      [rename]d into place (atomic on POSIX); readers see whole entries
      or nothing.
    - {b Corruption tolerance.}  A truncated, corrupted or foreign file
      parses as a miss, never an error or a crash.

    The envelope, switch, latch, counters and upkeep are
    {!Gat_util.Store}'s; this module is the keys and the payload
    codec. *)

val model_version : string
(** Version stamp of the performance model baked into every key and
    payload.  Bump it whenever {!Gat_sim.Engine} or the memory model
    changes behaviour: all previous entries become unreachable
    (self-invalidation). *)

val header : string -> string
(** [header magic]: the lines [magic] and ["model <model_version>"],
    which open every file of this format, the shard manifest too. *)

val cache : Gat_util.Store.t
(** The store behind every [.sweep] file under
    {!Gat_util.Cache_dir.root}: its switch ([--no-cache]), degrade
    latch, [cache.disk.*] counters, fault sites [cache-read] /
    [cache-write], and [gat cache] upkeep.  Its upkeep also lists
    [.ckpt] files, the local sweep checkpoints older versions wrote, so
    [gat cache clear] and [gc] still reclaim them. *)

val key :
  Space.t -> Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> n:int -> seed:int -> string
(** The content-hash key (hex MD5) for one sweep; exposed for tests and
    diagnostics. *)

val find :
  Space.t ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  (Variant.t list * Variant.unsafe list) option
(** Look up a finished sweep: its valid variants plus the points the
    safety verifier rejected.  [None] on any failure whatsoever. *)

val store :
  Space.t ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  Variant.t list ->
  Variant.unsafe list ->
  unit
(** Persist a finished sweep.  Never raises: an I/O failure (read-only
    filesystem, no space) warns once and latches the cache off for
    writes — the cache is an optimization, not a store of record. *)

(** {2 Sweep checkpoints}

    The completed prefix of a range of {!Space.points}, with the
    entries' serialization and integrity trailer: a finished shard's
    [.part] file, or a shard holder's flushed prefix carried as text in
    its telemetry record.  Killed holders' prefixes are salvaged by the
    next claim and resume byte-identically. *)

type checkpoint = {
  done_points : int;  (** Completed prefix length of the range. *)
  variants : Variant.t list;  (** Outcomes of that prefix, in order. *)
  failures : Variant.failure list;  (** Failed points of that prefix. *)
  unsafe : Variant.unsafe list;  (** Verifier-rejected points of it. *)
}

val checkpoint_write : path:string -> checkpoint -> unit
(** Atomically publish a checkpoint to an explicit path — the
    partial-entry layout of the distributed sweep (finished per-shard
    [.part] files, whose [done_points] is relative to the shard's
    range).  Unlike {!store} this is coordination state, not a cache
    optimization: it ignores the enabled/degraded latches and raises
    [Sys_error] (or {!Gat_util.Fault.Injected}, site [cache-write]) on
    failure so the caller can apply its own retry policy. *)

val checkpoint_read : string -> checkpoint option
(** Read a checkpoint from an explicit path; [None] when absent,
    damaged, sealed with a different model version, or under an
    injected [cache-read] fault.  Never raises. *)

val checkpoint_text : checkpoint -> string
(** The file text, unsealed: a shard holder's prefix in its record. *)

val checkpoint_of_text : string -> checkpoint option
(** Inverse of {!checkpoint_text}; [None] on malformed input. *)
