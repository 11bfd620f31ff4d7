(** The persistent content-addressed artifact store.

    One MD5-sealed file per verifier report under
    [<cache root>/artifacts/], keyed by a structural hash of exactly
    the verifier's inputs: the weight-free {!Gat_isa.Fingerprint}
    digest of the virtual program, the threads per block, and the
    format version.  Variants that differ only in the block count, the
    device or the problem size N key identically and share one stored
    report — across runs and across processes.  The other backend
    stages are not stored: each is cheaper to recompute than to write
    and read back (DESIGN.md section 5.8).

    Hard invariant: a store-served report is bit-identical to a
    recomputed one; corruption, truncation or a format-version
    mismatch reads as a miss, never as wrong data.  I/O failure
    degrades the store (warn once, latch, compute uncached) exactly
    like the sweep cache.

    Chaos hooks: the [artifact-read] / [artifact-write] fault sites.
    Observability: [artifact.{hits,misses,stores,degraded_writes,
    bytes_read,bytes_written}] counters, and the [artifact.read] /
    [artifact.write] spans and histograms.  The envelope, switch,
    latch, counters and upkeep are {!Gat_util.Store}'s; this module is
    the key and the report codec. *)

val cache : Gat_util.Store.t
(** The store behind every [.art] file under [<cache root>/artifacts]:
    its switch ([--no-cache]), degrade latch, counters, fault sites and
    [gat cache] upkeep. *)

val verdict_key : threads_per_block:int -> string -> string
(** [verdict_key ~threads_per_block digest]: per {e virtual} program
    digest and TC; the verifier never reads the device, the block
    count or the problem size.  A stable hex string: compute once, then
    {!find_verdict} and (on a miss) {!store_verdict} with it. *)

val find_verdict : key:string -> Gat_analysis.Verify.report option
(** The full safety report, findings included. *)

val store_verdict : key:string -> Gat_analysis.Verify.report -> unit
