(** Backend memoization across the launch-geometry axes.

    Lowering bakes TC and BC only into the per-block execution weights;
    the instruction streams of a lowered kernel are identical across
    every (TC, BC) point of a sweep once the code-shaping parameters
    (UIF, PL, SC, CFLAGS) are fixed.  Scheduling, register allocation
    and the static coalescing analysis read only the instruction
    streams, so their results can be shared across all of those points.

    The key is the weight-free structural digest of the virtual
    program ({!Gat_isa.Fingerprint.program}, computed once per compile
    and passed in) plus the device identity
    — the shared content-addressed key of the whole backend.  Sound by
    construction: equal digests mean equal labels, bodies and
    terminators, so any kernel that did bake launch geometry into its
    code digests differently and recompiles, never answers
    incorrectly.  Reused outputs get the current variant's weights
    re-attached, so the result is bit-identical to a fresh compile.

    Two tiers: the in-memory table (same-process, hashtable speed),
    then the persistent {!Artifacts} store — per-block scheduling
    entries plus per-program register-allocation and coalescing
    entries — which shares results across runs and processes and makes
    a one-block kernel edit recompile O(delta).

    Thread-safe; sweeps compile variants from parallel pool workers.
    Counters: [cache.codegen.hits] / [cache.codegen.misses] (in-memory
    tier), [artifact.{sched,ra,coal}.*] (persistent tier). *)

type outcome = {
  program : Gat_isa.Program.t;  (** Physical-register form. *)
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
}

val run : gpu:Gat_arch.Gpu.t -> digest:string -> Gat_isa.Program.t -> outcome
(** [run ~gpu ~digest vp] schedules, register-allocates and
    coalescing-analyzes the lowered program [vp], reusing any previous
    result with the same [digest].  [digest] must be
    [Gat_isa.Fingerprint.program vp], which
    [Driver.compile] computes once per compile; every parameter that shapes the
    backend's input already shaped [vp], so the digest subsumes the
    parameters. *)

type stats = { classes : int; hits : int; misses : int }

val stats : unit -> stats
(** In-memory tier only; the persistent tier reports through
    {!Artifacts.stats}. *)

val clear : unit -> unit
(** Drop the in-memory tier (persistent artifacts survive). *)
