(** The persistent content-addressed artifact store.

    One MD5-sealed file per code class under [<cache root>/artifacts/]:
    the verifier's TC-free facts ({!Gat_analysis.Verify.analyze}),
    keyed by the weight-free {!Gat_isa.Fingerprint} digest of the
    virtual program and the format version.  Variants that differ only
    in the thread count, the block count, the device or the problem
    size N key identically and share one stored entry — across runs
    and across processes; each TC's report is the cheap witness search
    over it ({!Gat_analysis.Verify.report}).  The other backend stages
    are not stored: each is cheaper to recompute than to write and
    read back (DESIGN.md section 5.8).

    Hard invariant: store-served facts are bit-identical to recomputed
    ones; corruption, truncation or a format-version
    mismatch reads as a miss, never as wrong data.  I/O failure
    degrades the store (warn once, latch, compute uncached) exactly
    like the sweep cache.

    Chaos hooks: the [artifact-read] / [artifact-write] fault sites.
    Observability: [artifact.{hits,misses,stores,degraded_writes,
    bytes_read,bytes_written}] counters, and the [artifact.read] /
    [artifact.write] spans and histograms.  The envelope, switch,
    latch, counters and upkeep are {!Gat_util.Store}'s; this module is
    the key and the facts codec. *)

val cache : Gat_util.Store.t
(** The store behind every [.art] file under [<cache root>/artifacts]:
    its switch ([--no-cache]), degrade latch, counters, fault sites and
    [gat cache] upkeep. *)

val verdict_key : string -> string
(** [verdict_key digest]: per {e virtual} program digest; the facts
    never read the TC, the device, the block count or the problem
    size.  A stable hex string: compute once, then {!find_verdict} and
    (on a miss) {!store_verdict} with it. *)

val find_verdict : key:string -> Gat_analysis.Verify.facts option
(** The class's facts, race candidates and divergent barriers
    included. *)

val store_verdict : key:string -> Gat_analysis.Verify.facts -> unit
