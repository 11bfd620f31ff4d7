(** Backend memoization across the launch-geometry axes.

    Lowering bakes TC and BC only into the per-block execution weights;
    the instruction streams of a lowered kernel are identical across
    every (TC, BC) point of a sweep once the code-shaping parameters
    (UIF, PL, SC, CFLAGS) are fixed.  Scheduling, register allocation,
    the static coalescing analysis and the geometry-free part of the
    block table read only the instruction streams, so their results are
    shared across all of those points.

    The in-memory tier finds a lowered program by a cheap weight-free
    summary (device identity, program name, instruction count, shared
    memory per block) that only picks a bucket; a hit further requires
    {!Gat_isa.Fingerprint.same_code} against the stored virtual program
    — exact equality of labels, bodies, terminators and footprint, float
    immediates by bit pattern.  Sound by construction: any kernel that
    did bake launch geometry into its code compares unequal and
    recompiles, never answers incorrectly.  Reused outputs get the
    current variant's weights re-attached, so the result is
    bit-identical to a fresh compile.

    Only a miss computes {!Gat_isa.Fingerprint.program} — the
    content-addressed key of the persistent tier and of every cache
    downstream; the entry stores it, so the digest is computed once per
    code shape per process.

    Two tiers: the in-memory table (same-process), then the persistent
    {!Artifacts} store — per-block scheduling entries plus per-program
    register-allocation and coalescing entries — which shares results
    across runs and processes and makes a one-block kernel edit
    recompile O(delta).

    Thread-safe; sweeps compile variants from parallel pool workers.
    Entries are immutable once published; inserts are re-checked under
    the lock.  Counters: [cache.codegen.hits] / [cache.codegen.misses]
    (in-memory tier), [artifact.{sched,ra,coal}.*] (persistent tier). *)

type outcome = {
  program : Gat_isa.Program.t;  (** Physical-register form. *)
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
  digest : string;  (** [Gat_isa.Fingerprint.program] of the input. *)
  shape : Block_table.shape;
      (** Geometry-free block table of [program], shared by every
          variant of the code shape. *)
}

val run : gpu:Gat_arch.Gpu.t -> Gat_isa.Program.t -> outcome
(** [run ~gpu vp] schedules, register-allocates and
    coalescing-analyzes the lowered program [vp], reusing any previous
    result for the same code on the same device.  Every parameter that
    shapes the backend's input already shaped [vp], so the code
    subsumes the parameters. *)

type stats = { classes : int; hits : int; misses : int }

val stats : unit -> stats
(** In-memory tier only; the persistent tier reports through
    [Gat_util.Store.stats Artifacts.cache]. *)

val clear : unit -> unit
(** Drop the in-memory tier (persistent artifacts survive). *)
