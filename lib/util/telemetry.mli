(** Fleet telemetry snapshots: durable, mergeable per-process
    observability for sharded sweeps.

    Every coordinator/worker keeps two files in the coordination
    directory.  Its record, [<host>.<pid>.telem], is small, MD5-sealed
    and atomically renamed — after every block, plus on every exit path
    — and carries its counters, timers, log-bucketed latency
    histograms, a monotonic→wall epoch anchor and, last,
    [events N BYTES].  Its events log, [<host>.<pid>.events], holds the
    trace ring buffers' events as framed batches ([batch LEN MD5] and
    LEN bytes of event lines); the record's events are the log's first
    BYTES bytes, N events in all.  While it holds a shard the record
    carries a {!hold}, and its mtime is the lease heartbeat ({!Lease}).
    The crash flight recorder republishes the same record from the
    fatal-error and fatal-signal paths, with the failure as its [note]
    and the last flush's hold, so a process leaves one record whatever
    its end.  Readers skip-and-count corrupt or
    truncated snapshots ([telem.snapshots_skipped]) — a bad seal, a log
    shorter than BYTES, a batch failing its MD5, a wrong event count —
    and ignore log bytes past BYTES; a SIGKILLed worker's last flushed
    snapshot still merges.

    A flush costs what was recorded since the previous one: it writes
    only the events {!Trace.events_since} reports as new, as one batch
    at the log's current end, then republishes the record.  Event
    lines therefore come in flush batches, each sorted by time, not in
    one global time sort; {!Trace.render_merged} sorts on merge.
    Counter-only readers ([gat monitor], the coordinator's epilogue,
    shard salvage) read records header-only and never open the log.

    Metrics: [telem.flushes], [telem.snapshots_skipped],
    [telem.crashes], [telem.bytes_written] (bytes of every published
    record, crash dumps included, plus every log batch). *)

type hold = {
  shard : int;
  owner : string;  (** The holder's lease owner token (no spaces). *)
  prefix : string;  (** The flushed prefix, as checkpoint text. *)
}

type snapshot = {
  host : string;
  pid : int;
  anchor_mono_ns : int64;
      (** Monotonic clock at the process's anchor instant. *)
  anchor_wall_ns : int64;
      (** Wall clock (ns since the Unix epoch) at the same instant;
          the pair aligns this process's events to other machines'. *)
  captured_wall_ns : int64;
      (** When this snapshot was captured, as anchor-aligned wall ns —
          [gat monitor] derives rates and staleness from it. *)
  dropped : int;  (** Trace events dropped at buffer capacity. *)
  note : string;  (** Crash reason, set by {!crash_dump}; else empty. *)
  counters : (string * int) list;
  timers : (string * int * int) list;  (** (name, events, total ns). *)
  histograms : (string * Histogram.Log.t) list;
  hold : hold option;
  events : Trace.event list;
}

(** {2 Session control} *)

val enable : dir:string -> unit
(** Start a telemetry session publishing into [dir]; samples this
    process's epoch anchor (back-to-back monotonic + wall reads) and
    turns on span recording into the bounded ring buffers if it is not
    already on — so a worker started without [--trace] still
    contributes events to the fleet merge. *)

val disable : unit -> unit
(** End the session and close its events log; span recording that
    {!enable} itself turned on is turned back off (a [--trace]
    registration is left alone). *)

val dir : unit -> string option
(** The active session's directory, if any. *)

val flush : ?hold:hold -> unit -> unit
(** Write the events recorded since the session's previous publish to
    [<host>.<pid>.events] as one batch (at the log's end, never past
    it: a crash dump interrupting a flush rewrites the same region),
    then capture and atomically publish [<host>.<pid>.telem] (with
    [hold], if any, which the session keeps for {!crash_dump})
    counting them.  A {!Trace.clear} in between
    restarts the log.  No-op without a session; swallows I/O errors
    (telemetry never takes a sweep down).  Shard holders publish
    through {!Lease.heartbeat}. *)

val crash_dump : reason:string -> unit
(** Like {!flush}, but with [reason] as the record's note and the last
    flush's hold, so a dead holder's prefix stays claimable — the crash
    flight recorder, called from the top-level fatal-error catch. *)

val install_signal_dump : unit -> unit
(** Install a SIGTERM handler that writes the crash flight record
    (note [fatal signal 15 (SIGTERM)]), restores the default
    disposition and re-delivers the signal (the exit status still
    reports death-by-signal). *)

(** {2 Capture and wire format} *)

val to_payload : snapshot -> Buffer.t * string
(** The record's line-oriented payload, ready for {!Sealed_file.seal},
    and the events log it counts: the snapshot's events as one batch
    (empty when there are none).  Shares its header writer with
    {!flush}. *)

val of_payload : ?log:string -> string -> snapshot option
(** Inverse of {!to_payload}; [None] on any malformed input.  Given
    [log], the events are read from exactly its first BYTES bytes
    (every batch's MD5 checked, N events required; bytes past BYTES are
    ignored).  Without it the parse is header-only and the snapshot's
    [events] is empty. *)

val snapshot_path : dir:string -> host:string -> pid:int -> string

val events_path : string -> string
(** The events log a record at this path points at: the record's path
    with its extension replaced by [.events]. *)

val is_telem_file : string -> bool

val read_file : ?header_only:bool -> string -> snapshot option
(** Unseal and parse one record and read its events from the first
    BYTES bytes of its {!events_path} log ({!of_payload}); [None] when
    either is absent, torn, corrupt or truncated.  With
    [~header_only:true] the log is never opened and [events] is
    empty; the record's seal is still checked. *)

(** {2 Fleet reads and merging} *)

val load_dir : ?header_only:bool -> string -> snapshot list * int
(** All [.telem] snapshots under a directory, one per process, sorted
    by (host, pid), and the number of corrupt/unreadable ones
    skipped. *)

val dedupe : snapshot list -> snapshot list
(** One snapshot per (host,pid), for snapshots gathered from several
    places — the latest capture wins: the larger
    counter total (counters are cumulative), then the later
    [captured_wall_ns] — sorted by (host, pid).  Events are not
    weighed, so header-only and full reads pick the same snapshot. *)

val to_process : snapshot -> Trace.process
(** The snapshot as {!Trace.render_merged} input. *)

val merge_dir : string -> string * int * int * int
(** Fold every snapshot under a directory, crashed or not, into one
    Chrome trace: [(json, events, processes, skipped)].  Clocks are
    aligned via the epoch anchors; counters are summed across
    processes. *)

val absorb_foreign : snapshot list -> unit
(** Add foreign processes' counters and histograms into this
    process's live registries (skipping any snapshot matching this
    host+pid), so the coordinator's final [gat stats] output is
    fleet-wide. *)
