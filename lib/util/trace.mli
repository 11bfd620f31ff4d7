(** Span tracing with Chrome trace-event export.

    The observability substrate's event side: {!span} wraps a
    computation and records a complete ("X") event into the calling
    domain's private buffer; {!finish} merges every domain's buffer
    and writes one Chrome trace-event JSON file, loadable in Perfetto
    or [chrome://tracing] — one track per domain, span args carrying
    variant coordinates, and a final counter sample per registered
    {!Metrics} counter.

    Cost model: when tracing is off (the default) every entry point is
    one [Atomic.get] and a branch — no clock read, no allocation, no
    lock.  When on, a span costs two monotonic-clock reads and one
    cons onto a domain-local list; buffers are bounded (excess events
    are dropped and counted) and merged only at {!finish}.  Telemetry
    flushes read them incrementally through a {!cursor}, paying only
    for events recorded since their previous read.

    Recording is bit-transparent: spans return the traced thunk's
    value unchanged and re-raise its exceptions with their
    backtraces. *)

val on : unit -> bool
(** Whether spans are being recorded (the fast-path flag; inline the
    check before building expensive args in hot paths). *)

val enable : unit -> unit
(** Start recording (no output file; for tests). *)

val enable_to : string -> unit
(** Start recording and write the trace to this file at {!finish}
    (the CLI's [--trace FILE]). *)

val disable : unit -> unit
(** Stop recording; buffered events remain until {!clear}. *)

type arg = S of string | I of int | F of float
(** Span argument values: shown under the span in the viewer. *)

val span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when enabled, records a complete
    event named [name] covering [f]'s duration on this domain's
    track.  Use stable names ([compile.lower], [sweep.simulate]) and
    put per-instance coordinates in [args]. *)

val instant : ?args:(string * arg) list -> string -> unit
(** A zero-duration instant event (e.g. an injected fault). *)

val collected : unit -> int
(** Events currently buffered across all domains. *)

val dropped : unit -> int
(** Events dropped because a domain buffer reached capacity. *)

val clear : unit -> unit
(** Drop all buffered events (buffers stay registered). *)

type event = {
  name : string;
  ph : char;  (** 'X' complete, 'i' instant, 'C' counter, 'M' metadata *)
  ts_ns : int64;  (** Monotonic-clock start, nanoseconds. *)
  dur_ns : int64;
  tid : int;  (** Recording domain's id. *)
  args : (string * arg) list;
}
(** A raw buffered event, exposed for telemetry snapshots. *)

val events : unit -> event list
(** Every buffered event across all domains, sorted by
    (timestamp, tid, name). *)

type cursor
(** A position in every domain's buffer: what an earlier
    {!events_since} already returned. *)

val start : cursor
(** Nothing seen yet. *)

val events_since :
  cursor -> [ `Appended | `Cleared ] * event list * cursor
(** The events recorded since [cursor], sorted like {!events}, and
    the cursor past them.  Reads each buffer's newest-first prefix
    back to the head seen last time, without locking the buffers and
    without revisiting older events.  [`Cleared] reports that a
    buffer's old head is gone ({!clear} ran): the list is then every
    buffered event, and the caller drops what it kept from earlier
    calls. *)

val serialize_events : event list -> string
(** One JSON object per line with raw nanosecond fields — the
    snapshot wire form; inverse of {!parse_events}. *)

val parse_events : string -> event list option
(** Parse {!serialize_events} output; [None] if any line is
    malformed (readers treat that as a corrupt snapshot). *)

type process = {
  p_host : string;
  p_pid : int;
  p_anchor_mono_ns : int64;
      (** Monotonic clock at the process's anchor instant. *)
  p_anchor_wall_ns : int64;
      (** Wall clock (ns since the Unix epoch) at the same instant. *)
  p_events : event list;
  p_counters : (string * int) list;
  p_dropped : int;
}
(** One process's telemetry as input to {!render_merged}. *)

val render_merged : process list -> string * int
(** Fold many processes' events into one Chrome trace: one trace
    process per (host,pid) with its domain tracks under it, clocks
    aligned via each process's monotonic→wall epoch anchor and
    rebased to the fleet's earliest event, counters summed across
    processes into final 'C' samples.  Returns the JSON and the
    total span/instant event count. *)

val render : unit -> string * int
(** This process's trace: {!render_merged} over one process named
    [gat host:pid], with its {!events}, every registered counter and
    its monotonic clock as the time base.  Returns the JSON and the
    number of recorded events (excludes metadata/counter lines). *)

val out_path : unit -> string option
(** The output file registered by {!enable_to}, if any. *)

val finish : unit -> (string * int) option
(** If tracing was started with {!enable_to}: write the file, disable
    tracing, clear the buffers, and return [(path, events)].
    Otherwise just disable and return [None].  The CLI calls this on
    every exit path so a trace survives failed runs. *)

(** {2 Validation — the test checker}

    A minimal structural checker for trace files, shared by the unit
    tests and the CI [trace-smoke] job ([gat trace-check]).  It
    parses the JSON with a built-in reader (no JSON dependency),
    verifies every event has [name]/[ph]/[ts]/[tid], that ["B"]/["E"]
    events balance per track with matching names, that ["X"] events
    carry a non-negative [dur], and that all [require]d counter
    samples are present.  A requirement is a bare counter name
    (presence) or a comparison ["name>K"], ["name>=K"] or ["name=K"]
    with integer [K] against the latest sample — CI uses
    ["verify.checked=160"] to pin the verifier's work on a sweep. *)

type validation = {
  events : int;  (** Span/instant events (metadata and counters excluded). *)
  tracks : int;  (** Distinct (pid, tid) tracks carrying events. *)
  pids : int;  (** Distinct process tracks carrying span/instant events. *)
  counters : string list;  (** Names of counter samples, sorted. *)
  span_names : string list;  (** Distinct span names, sorted. *)
}

val validate_string : ?require:string list -> string -> (validation, string) result
val validate_file : ?require:string list -> string -> (validation, string) result
