(** Deterministic fault injection for chaos testing.

    The [GAT_FAULT] environment variable (or {!set_spec}) names
    injection sites and per-call failure probabilities:

    {v GAT_FAULT="compile:0.05,simulate:0.02,cache-write:1:sticky,seed:7" v}

    Each entry is [site:prob] or [site:prob:sticky]; [seed:N] salts
    every decision.  Instrumented code calls
    [Fault.inject ~site ~key]; with probability [prob] (a pure hash of
    seed, site, key and — for transient rules — the attempt number)
    the call raises {!Injected}.

    - {e transient} (default): each retry of the same (site, key)
      re-rolls, so bounded in-place retry can recover;
    - {e sticky}: the decision ignores the attempt number, so a doomed
      key fails every attempt — exercising the failure-recording path.

    Decisions depend only on the spec and the call's identity, never on
    timing or worker count: a chaos run is exactly reproducible.

    Instrumented sites: [compile] and [simulate] (per-variant
    evaluation), [cache-read] and [cache-write] (the persistent sweep
    cache and shard checkpoints), [artifact-read] / [artifact-write] (the
    artifact store), and the distributed-sweep sites
    [lease-acquire], [lease-renew] ({!Lease} heartbeats) and [shard-merge]
    (validation of per-shard partial results at merge).  Sites are
    plain strings, so new call sites need no registration here. *)

exception Injected of string
(** Raised by {!inject}; the message names site, key and attempt. *)

val inject : site:string -> key:string -> unit
(** No-op unless a rule for [site] is configured.  Counts one attempt
    for (site, key) and raises {!Injected} if the roll fails. *)

val armed : site:string -> bool
(** True when a rule for [site] is active.  A caller whose key is
    costly to build checks this first and builds the key only then;
    with no rule, {!inject} and [armed] take no lock. *)

val set_spec : string option -> unit
(** Programmatic override of [GAT_FAULT]; [None] disables injection.
    Also clears the per-(site, key) attempt counters.
    @raise Error.Error on a malformed spec ({!Error.Usage}). *)
