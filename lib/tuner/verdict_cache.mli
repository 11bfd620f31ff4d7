(** Per-variant safety-verdict memoization on the shared structural
    key ({!Gat_isa.Fingerprint.program} of the virtual program, plus
    TC).  The digest is the one {!Gat_compiler.Driver.compile} already
    computed ([Driver.compiled.digest]); nothing here hashes code.

    The verifier's verdict reads only the instruction structure of the
    lowered (virtual-register) program and the thread count — never
    the per-block execution weights, which are the only part of the
    code that depends on BC, and never the device or the problem size
    — so one verification is shared across every BC and N point of a
    sweep once the code-shaping parameters and TC are fixed.  Equal
    digests mean equal labels, bodies and terminators: the reuse is
    sound by construction, and any mismatch digests differently and
    recomputes.

    Two tiers: the in-memory table (same-process), then the persistent
    {!Gat_compiler.Artifacts} store ([verdict] stage), which shares
    verdicts across runs and processes.

    Thread-safe; sweeps verify variants from parallel pool workers.
    Counters: [cache.verdict.hits] / [cache.verdict.misses] (in-memory
    tier), [artifact.verdict.*] (persistent tier). *)

val get : Gat_compiler.Driver.compiled -> Gat_analysis.Verify.report
(** The verifier's report for this compiled variant's virtual-register
    program at its TC, memoized on the variant's [digest]. *)

type stats = { classes : int; hits : int; misses : int }

val stats : unit -> stats
(** In-memory tier only; the persistent tier reports through
    {!Gat_compiler.Artifacts.stats}. *)

val clear : unit -> unit
(** Drop the in-memory tier (persistent artifacts survive). *)
