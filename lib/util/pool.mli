(** Work-stealing domain pool for data-parallel map over arrays.

    OCaml 5 domains, no external dependencies.  The pool exists for the
    exhaustive autotuning sweeps (thousands of independent
    compile+simulate evaluations), but is generic: [map] preserves
    index order, so a parallel map is observably identical to the
    sequential one whenever [f] is pure per element.

    Scheduling: each worker owns a Chase-Lev deque seeded with one
    contiguous slice of the input.  It pops index ranges from its own
    bottom lock-free; ranges wider than the current grain are split in
    half with the far half pushed back, so the top of every deque
    exposes the largest remaining ranges.  A worker that runs dry
    steals from a randomized victim order, taking the victim's top
    range — roughly half its remaining indices.  The grain adapts:
    coarse (about [n / (4 jobs)]) while every worker has local work,
    collapsing to single elements as soon as any worker is hungry, so
    a skewed tail (divergent kernels, large unroll factors) is carved
    fine enough to share instead of serializing on one domain.

    Work stealing is the only parallel path.  Worker count resolution,
    in priority order: the [?jobs] argument, the process-wide
    {!set_default_jobs} override, the [GAT_JOBS] environment variable,
    and finally the machine's recommended domain count.  [jobs = 1]
    falls back to a plain sequential map — no domains are spawned — and
    so does any input longer than [2^31 - 1] elements, too many to pack
    into a deque's index ranges. *)

val jobs : unit -> int
(** The worker count that {!map} would use right now (>= 1). *)

val set_default_jobs : int option -> unit
(** Process-wide override for {!jobs}; [None] restores the
    [GAT_JOBS] / domain-count default.
    @raise Invalid_argument if the override is < 1. *)

val map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f arr] is [Array.map f arr], evaluated by [jobs] domains
    under the work-stealing scheduler.  [?chunk] overrides the
    balanced-state grain.  Result order matches input order, and
    results land in one unboxed buffer — no per-element [Some]
    allocation.  If any application of [f] raises, every worker halts
    at its next range boundary and the first exception observed is
    re-raised in the caller after all workers have stopped. *)

val map_list : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; [map_list ~jobs:1 f l] is [List.map f l]. *)

(** {2 Supervised map}

    {!map} has fail-fast semantics: one raising element aborts the
    whole map.  The supervised variant records per-element outcomes
    instead, with bounded in-place retry and an optional failure
    budget — the posture a long sweep needs, where one bad variant
    must not discard hours of good ones.  Both variants run the same
    unified worker core; they differ only in what a range execution
    writes and in when the pool halts. *)

type exn_info = {
  exn : exn;
  backtrace : string;
  attempts : int;  (** Total tries made (1 = failed without retry). *)
}

exception
  Budget_exceeded of { failed : int; budget : int; last : exn_info }
(** Raised by {!map_result} once more than [max_failures] elements
    have failed; [last] is the failure that crossed the budget. *)

val map_result :
  ?jobs:int ->
  ?chunk:int ->
  ?retries:int ->
  ?max_failures:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn_info) result array
(** [map_result f arr] is {!map} with per-element supervision: an
    application that raises is retried in place up to [retries] more
    times (default 1) and, if it keeps failing, yields [Error info] at
    its index instead of aborting the map.  Result order matches input
    order; [Ok] elements are exactly what {!map} would have produced.
    Every element is evaluated exactly once per attempt regardless of
    which worker ends up running it, so retry counts and fault-
    injection decisions cannot depend on the schedule.

    With [max_failures], the map stops early once {e more than} that
    many elements have failed (a budget of 0 tolerates none) and
    raises {!Budget_exceeded} after all workers have drained.

    Outcomes feed the {!Metrics} registry: [pool.jobs.ok] /
    [pool.jobs.failed] count per-element results, [pool.retries]
    counts extra attempts, and [pool.jobs.recovered] counts elements
    that succeeded only after a retry — which the [Ok] payload alone
    cannot distinguish from first-try successes.
    @raise Invalid_argument if [retries < 0]. *)

(** {2 Scheduler observability}

    [pool.steals] counts ranges taken from a victim's deque,
    [pool.steal_fails] counts full victim scans that found nothing,
    and [pool.splits] counts range halvings.  Unlike the pool's
    outcome counters these depend on runtime interleaving and are
    {e not} deterministic across runs; they appear in [gat stats] and
    as counter samples in exported traces, alongside a [pool.steal]
    instant event per successful steal when tracing is on. *)

type sched_stats = { steals : int; steal_fails : int; splits : int }

val scheduler_stats : unit -> sched_stats

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
(** [with_lock m f] runs [f] holding [m], releasing it on return or
    exception.  The helper shared by every cache that must stay
    consistent under {!map}. *)
