(** A single-flight in-process memo: the one keyed table under one lock
    behind every same-process cache (code classes and backend results,
    safety verdicts, branch probabilities, sweeps, rankings, search
    objectives).

    A miss records a pending slot under the lock, then computes outside
    it.  A concurrent caller asking for a pending key waits for it and
    counts as a hit, so [misses] is the number of distinct keys
    computed, whatever the number of worker domains.  A computation
    that raises leaves the key absent, wakes its waiters (the first to
    retake the lock computes it again) and re-raises with its
    backtrace.

    Unbounded: entries live until {!clear}.  A computation must not ask
    its own memo for the key it is computing: it would wait on itself. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  val create : ?hits:Metrics.counter -> ?misses:Metrics.counter -> unit -> 'a t
  (** An empty memo; [hits] and [misses], when given, are incremented
      alongside its own counts. *)

  val find_or_compute : 'a t -> K.t -> (unit -> 'a) -> 'a
  (** The value held for the key, waiting for it when it is pending,
      else [f ()]'s, which is then held. *)

  val add : 'a t -> K.t -> 'a -> 'a
  (** Hold a value computed elsewhere; the first insert wins and is
      returned.  Counts neither a hit nor a miss. *)

  val find : 'a t -> K.t -> 'a option
  (** The value held for the key; [None] while it is pending.  Counts
      neither a hit nor a miss. *)

  val length : 'a t -> int
  (** Keys held or pending. *)

  val hits : 'a t -> int
  val misses : 'a t -> int

  val clear : 'a t -> unit
  (** Drop every held value and zero {!hits} and {!misses} (the
      {!Metrics} counters keep counting).  A computation in flight still
      publishes its value when it finishes. *)
end
