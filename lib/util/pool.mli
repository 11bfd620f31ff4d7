(** Domain pool for data-parallel map over arrays.

    OCaml 5 domains, no external dependencies.  The pool exists for the
    exhaustive autotuning sweeps (thousands of independent
    compile+simulate evaluations), but is generic: [map] preserves
    index order, so a parallel map is observably identical to the
    sequential one whenever [f] is pure per element.

    Scheduling: [min jobs n] workers — the caller plus the spawned
    domains — claim indices one at a time from one shared atomic
    cursor, so every index is evaluated by exactly one worker and a
    skewed tail (divergent kernels, large unroll factors) is shared
    element by element.  With one worker nothing is spawned and the
    same loop runs on the caller.

    Worker count resolution, in priority order: the [?jobs] argument,
    the process-wide {!set_default_jobs} override, the [GAT_JOBS]
    environment variable, and finally the machine's recommended domain
    count. *)

val jobs : unit -> int
(** The worker count that {!map} would use right now (>= 1). *)

val set_default_jobs : int option -> unit
(** Process-wide override for {!jobs}; [None] restores the
    [GAT_JOBS] / domain-count default.
    @raise Invalid_argument if the override is < 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f arr] is [Array.map f arr], evaluated by [jobs] workers.
    Result order matches input order.  If any application of [f]
    raises, every worker stops at its next claim and the first
    exception observed is re-raised in the caller after all workers
    have stopped. *)

(** {2 Supervised map}

    {!map} has fail-fast semantics: one raising element aborts the
    whole map.  The supervised variant records per-element outcomes
    instead, with bounded in-place retry and an optional failure
    budget — the posture a long sweep needs, where one bad variant
    must not discard hours of good ones.  Both variants run the same
    worker loop; they differ only in the per-element body and in when
    the workers stop. *)

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

    Outcomes feed the {!Metrics} registry: [pool.maps] counts maps,
    [pool.jobs.ok] / [pool.jobs.failed] count per-element results,
    [pool.retries] counts extra attempts, and [pool.jobs.recovered]
    counts elements that succeeded only after a retry — which the [Ok]
    payload alone cannot distinguish from first-try successes.  The
    histograms [pool.worker.busy] / [pool.worker.idle] take one sample
    per worker per map, splitting its share of the map's wall time;
    they depend on the interleaving.
    @raise Invalid_argument if [retries < 0]. *)
