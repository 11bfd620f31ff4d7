(** Process-wide counters and timers: the always-on metrics substrate.

    A counter is one atomic integer; an increment is one
    [fetch_and_add] with no lock and no allocation, cheap enough that
    instrumentation stays on unconditionally.  Hot modules bind their
    counters once at top level ([let hits = Metrics.counter
    "cache.disk.hits"]) so the registry hash lookup happens at
    program initialization, never per event.

    Counter values for a deterministic run are themselves
    deterministic (cache hits, retry counts, failure totals do not
    depend on wall time or worker count: every in-process cache is a
    single-flight {!Memo}, so its misses count distinct keys), so
    {!render_counters} is golden-testable.  Only the pool's scheduling
    counters vary with the worker count (see {!render_counters}).
    Timer sums are wall-clock and are rendered only by the full
    {!render}.

    Naming convention: dotted lowercase paths
    ([cache.disk.hits], [pool.jobs.recovered]); rendering mangles them
    to Prometheus form ([gat_cache_disk_hits]). *)

type counter
type timer

val now_ns : unit -> int64
(** Monotonic clock ([CLOCK_MONOTONIC]), nanoseconds, allocation-free.
    The one clock every timing path in the system uses. *)

val counter : string -> counter
(** Find or register the counter with this name (registry-locked;
    call at module initialization, not per event). *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1); one atomic [fetch_and_add]. *)

val set : counter -> int -> unit
(** Overwrite the value (gauge-style; e.g. on-disk entry totals). *)

val value : counter -> int

val bump : ?by:int -> string -> unit
(** [incr] by name, paying the registry lookup — for cold paths with
    dynamic names (e.g. [fault.injected.<site>]). *)

val timer : string -> timer
(** Find or register a timer (event count + total duration). *)

val timer_add : timer -> int -> unit
(** Record one event of the given duration in nanoseconds. *)

val timed : timer -> (unit -> 'a) -> 'a * float
(** Run the thunk, record its duration, and also return it in seconds
    (for printing).  The duration is recorded even if the thunk
    raises. *)

val time : timer -> (unit -> 'a) -> 'a
(** {!timed} without the duration. *)

type hist
(** A named log-bucketed latency histogram ({!Histogram.Log}). *)

val histogram : string -> hist
(** Find or register the histogram with this name (registry-locked;
    call at module initialization, not per event). *)

val observe : hist -> int -> unit
(** Record one latency sample in nanoseconds — two atomic adds. *)

val observe_timed : hist -> (unit -> 'a) -> 'a
(** Run the thunk and record its duration (recorded even on raise). *)

val observe_by_name : string -> int -> unit
(** {!observe} by name, paying the registry lookup — cold paths only. *)

val histograms_snapshot : unit -> (string * Histogram.Log.t) list
(** All histograms, sorted by name.  The returned histograms are the
    live registry entries — copy via {!Histogram.Log.counts} before
    mutating. *)

val merge_histogram : string -> Histogram.Log.t -> unit
(** Bucket-wise add an external histogram (e.g. a worker snapshot's)
    into the named registry histogram, registering it if needed. *)

val render_histograms : unit -> string
(** ASCII rendering of every non-empty histogram: a summary line
    (samples, p50, p99, mean) followed by log-scale bars. *)

val reset : unit -> unit
(** Zero every registered counter and timer (registration survives). *)

val counters_snapshot : unit -> (string * int) list
(** All counters, sorted by name.  Deterministic for a deterministic
    run. *)

val timers_snapshot : unit -> (string * int * float) list
(** All timers as [(name, events, total_seconds)], sorted by name. *)

val render_counters : unit -> string
(** Prometheus-style text dump of the counters only — sorted.
    Deterministic for a deterministic run, with one exception: the
    scheduler-internal counters ([pool.steals], [pool.steal_fails],
    [pool.splits]) count scheduling events, not outcomes, and vary
    with runtime interleaving. *)

val render : unit -> string
(** {!render_counters} plus the timers as [_seconds_count] /
    [_seconds_sum] summaries (not deterministic). *)

val pp_duration : float -> string
(** Human duration from seconds — the single formatting path for CLI
    timing lines ("1.3 s", "450 ms"). *)

val dump_requested : unit -> bool
(** Whether [GAT_STATS] asks for a metrics dump after the run
    (set and non-zero). *)
