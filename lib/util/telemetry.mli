(** Fleet telemetry snapshots: durable, mergeable per-process
    observability for sharded sweeps.

    Every coordinator/worker periodically publishes one MD5-sealed,
    atomically-renamed snapshot file ([<host>.<pid>.telem]) into the
    coordination directory — on the same per-block cadence as lease
    renewal, plus on every exit path — carrying its counters, timers,
    log-bucketed latency histograms, trace ring buffers and a
    monotonic→wall epoch anchor.  The crash flight recorder writes
    the same payload to [<host>.<pid>.crash] from the fatal-error and
    fatal-signal paths.  Readers skip-and-count corrupt or truncated
    snapshots ([telem.snapshots_skipped]); a SIGKILLed worker's last
    flushed snapshot still merges.

    A flush costs what was recorded since the previous one: the
    session keeps its serialized event lines, appends only the events
    {!Trace.events_since} reports as new, and writes them after the
    header lines.  Event lines therefore come in flush batches, each
    sorted by time, not in one global time sort; {!Trace.render_merged}
    sorts on merge.  Counter-only readers ([gat monitor], the
    coordinator's epilogue) read snapshots header-only: the seal is
    still checked, and parsing stops at the [events] line.

    Metrics: [telem.flushes], [telem.snapshots_skipped],
    [telem.crashes], [telem.bytes_written] (bytes of every published
    snapshot and crash record). *)

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
  note : string;  (** Crash reason; empty for periodic snapshots. *)
  counters : (string * int) list;
  timers : (string * int * int) list;  (** (name, events, total ns). *)
  histograms : (string * Histogram.Log.t) list;
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
(** End the session; span recording that {!enable} itself turned on
    is turned back off (a [--trace] registration is left alone). *)

val dir : unit -> string option
(** The active session's directory, if any. *)

val flush : unit -> unit
(** Capture and atomically publish [<host>.<pid>.telem] into the
    session directory.  Serializes only the events recorded since the
    session's previous publish (a {!Trace.clear} in between restarts
    the kept lines).  No-op without a session; swallows I/O errors
    (telemetry never takes a sweep down).  Called on the same
    per-block cadence as lease renewal. *)

val crash_dump : reason:string -> unit
(** Capture and publish [<host>.<pid>.crash] with [reason] as the
    snapshot note — the crash flight recorder, called from the
    top-level fatal-error catch. *)

val install_signal_dump : unit -> unit
(** Install a SIGTERM handler that writes the crash flight record,
    restores the default disposition and re-delivers the signal (the
    exit status still reports death-by-signal). *)

(** {2 Capture and wire format} *)

val to_payload : snapshot -> Buffer.t
(** Line-oriented payload, ready for {!Sealed_file.seal}.  Shares its
    header writer with {!flush}. *)

val of_payload : ?header_only:bool -> string -> snapshot option
(** Inverse of {!to_payload}; [None] on any malformed input.  With
    [~header_only:true] parsing stops at the [events] line and the
    snapshot's [events] is empty. *)

val snapshot_path : dir:string -> host:string -> pid:int -> string
val crash_path : dir:string -> host:string -> pid:int -> string
val is_telem_file : string -> bool
val is_crash_file : string -> bool

val read_file : ?header_only:bool -> string -> snapshot option
(** Unseal and parse one snapshot file; [None] when absent, torn,
    corrupt or truncated.  The seal covers the whole file even when
    [~header_only:true] skips parsing the events. *)

(** {2 Fleet reads and merging} *)

val load_dir : ?header_only:bool -> string -> snapshot list * int
(** All [.telem] snapshots under a directory (sorted by filename) and
    the number of corrupt/unreadable ones skipped. *)

val load_crashes : ?header_only:bool -> string -> snapshot list * int
(** Same for [.crash] flight records. *)

val crash_files : string -> string list
(** Paths of crash records under a directory, sorted. *)

val dedupe : snapshot list -> snapshot list
(** One snapshot per (host,pid) — the latest capture wins: the larger
    counter total (counters are cumulative), then the later
    [captured_wall_ns] — sorted by (host, pid).  Events are not
    weighed, so header-only and full reads pick the same snapshot. *)

val to_process : snapshot -> Trace.process
(** The snapshot as {!Trace.render_merged} input. *)

val merge_dir : string -> string * int * int * int
(** Fold every snapshot and crash record under a directory into one
    Chrome trace: [(json, events, processes, skipped)].  Clocks are
    aligned via the epoch anchors; counters are summed across
    processes. *)

val absorb_foreign : snapshot list -> unit
(** Add foreign processes' counters and histograms into this
    process's live registries (skipping any snapshot matching this
    host+pid), so the coordinator's final [gat stats] output is
    fleet-wide. *)
