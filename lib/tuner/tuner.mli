(** Autotuning orchestration: the Orio driver loop.

    Evaluating the full paper space (5,120 variants) per kernel and
    device is the expensive exhaustive baseline.  The sweep engine
    walks the space in blocks, splitting each block into a {e compile
    phase} — size-independent, done exactly once per parameter point
    and shared by every requested input size, with no compiled variant
    kept past its block — and a {e simulate phase} per problem size,
    and runs both over a {!Gat_util.Pool} of worker domains
    ([GAT_JOBS] or [?jobs]).

    Determinism is by construction: every parameter point derives its
    own RNG stream from [(seed, kernel, gpu, params)], so a parallel
    sweep returns variant lists identical to a sequential one.

    Sweeps are cached per (kernel, device, size, seed) within the
    process so reports that need the same sweep (Fig. 4, Table V,
    Fig. 5, Table VI, Fig. 6) share one evaluation; the cache is a
    single-flight {!Gat_util.Memo}, so concurrent requests for one
    sweep compute it once.
    Finished sweeps are additionally persisted through {!Disk_cache},
    so a rerun of the same experiment in a fresh process skips the
    compile-and-simulate work entirely (disable with
    [Gat_util.Store.set_enabled Disk_cache.cache] or the CLI's
    [--no-cache]).

    {b Supervision.}  Sweeps evaluate through
    {!Gat_util.Pool.map_result}: a variant whose evaluation raises is
    retried in place and, if it keeps failing, recorded as a
    {!Variant.failure} — first-class data in the {!report}, not a
    reason to abort thousands of good variants.  An optional
    [max_failures] budget restores fail-fast behaviour past a
    threshold ({!Gat_util.Error.Tune}).  Failed sweeps are never
    persisted to disk, so a degraded result cannot masquerade as the
    complete sweep later.

    {b Checkpoint / resume.}  Single-size sweeps can flush an atomic
    checkpoint of the completed point-prefix after every block
    ([checkpoint:true]) and continue from one ([resume:true]).
    Evaluation order over {!Space.points} is fixed, so a resumed sweep
    is byte-identical to an uninterrupted one regardless of where it
    was killed — SIGKILL included, since checkpoints are published by
    atomic rename.  {!Gat_util.Cancel} is polled between blocks, so
    SIGINT (once routed there) stops cleanly right after a flush. *)

val point_seed :
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  seed:int ->
  Gat_compiler.Params.t ->
  int
(** The per-point measurement seed: a hash of
    [(seed, kernel, gpu, params)].  Exposed so external harnesses can
    reproduce single-point evaluations exactly. *)

val objective :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> n:int -> seed:int -> Search.objective
(** A memoized objective implementing the measurement protocol: each
    point is compiled once, on its first evaluation. *)

val verdict : Gat_compiler.Driver.compiled -> Gat_analysis.Verify.report
(** The verifier's report on a compiled variant's virtual-register
    program at its TC, memoized on its weight-free [digest] and TC: the
    verdict never reads the per-block weights (the only BC-dependent
    part of the code), the device or N, so one verification serves
    every BC and N point of a code class.  In-process tier counters:
    [cache.verdict.hits] / [cache.verdict.misses]; underneath, the
    persistent [verdict] artifact ([artifact.verdict.*]) shares
    verdicts across runs and processes. *)

val default_block_size : int
(** Points per sweep block (the checkpoint granularity). *)

type report = {
  variants : Variant.t list;
      (** Successful evaluations, in space-point order. *)
  failures : Variant.failure list;
      (** Points whose evaluation raised even after retry, in order. *)
  unsafe : Variant.unsafe list;
      (** Points the static safety verifier rejected
          ({!Gat_analysis.Verify}), in space-point order.  Unsafe
          variants are never simulated, never appear in [variants],
          and never get ranked by any search strategy; like compile
          failures they are size-independent.  Verdicts are memoized
          per code shape ({!verdict}), counted under
          [sweep.unsafe], and — unlike failures — persisted with the
          sweep, since they are part of the complete result. *)
  restored_points : int;
      (** Points restored from a checkpoint (0 unless resumed). *)
}

val sweep_report :
  ?space:Space.t ->
  ?jobs:int ->
  ?retries:int ->
  ?max_failures:int ->
  ?checkpoint:bool ->
  ?resume:bool ->
  ?block:int ->
  ?progress:(done_:int -> total:int -> failures:int -> unit) ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  report
(** The supervised sweep.  [retries] (default 1) bounds in-place
    re-attempts per variant; [max_failures] aborts the sweep with
    {!Gat_util.Error.Error} (stage [Tune]) once {e more than} that
    many variants have failed (default: unbounded, all failures
    recorded).  [checkpoint] (default false) flushes an atomic
    checkpoint after each block of [block] (default 256) points;
    [resume] (default false) continues from a previous checkpoint of
    the exact same sweep when one exists.  Results never depend on
    [jobs], [block], or resumption.

    [progress] is invoked once before the first block (with the
    restored point count when resuming) and once after every completed
    block — only when the sweep is actually computed, not when it is
    answered from the in-process or on-disk cache.  It runs on the
    coordinating domain; failures counts both compile and simulate
    failures so far.
    @raise Gat_util.Error.Error (stage [Interrupted]) when
    {!Gat_util.Cancel.requested} fires between blocks. *)

val sweep_range :
  ?jobs:int ->
  ?retries:int ->
  ?max_failures:int ->
  ?block:int ->
  ?flush:(Disk_cache.checkpoint -> unit) ->
  ?init:Disk_cache.checkpoint ->
  ?interrupt_note:string ->
  space:Space.t ->
  first:int ->
  len:int ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  Disk_cache.checkpoint
(** Evaluate one contiguous range [\[first, first+len)] of
    [Space.points space] and return it as a range-relative
    {!Disk_cache.checkpoint} with [done_points = len] — the building
    block of the distributed sharded sweep ({!Shard}).  Point seeds
    depend only on the point itself, so concatenating the checkpoints
    of any partition of the space in range order reproduces the
    uninterrupted {!sweep_report} byte for byte.

    [flush] is invoked after every completed block with the checkpoint
    of the range prefix evaluated so far (the shard layer publishes it
    as its lease heartbeat); [init] resumes from such a prefix.
    Neither consults the sweep caches — range results are coordination
    state owned by the caller.
    @raise Invalid_argument when the range falls outside the space.
    @raise Gat_util.Error.Error (stage [Interrupted]) when
    {!Gat_util.Cancel.requested} fires between blocks; [interrupt_note]
    is appended to the message. *)

val sweep :
  ?space:Space.t ->
  ?jobs:int ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  Variant.t list
(** Evaluate every point of the space (default {!Space.paper}); invalid
    variants are dropped and failures tolerated unboundedly (use
    {!sweep_report} to see them).  Cached.  [?jobs] overrides the
    worker count (default {!Gat_util.Pool.jobs}); the result does not
    depend on it. *)

val sweep_multi :
  ?space:Space.t ->
  ?jobs:int ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  ns:int list ->
  seed:int ->
  (int * Variant.t list) list
(** [sweep_multi kernel gpu ~ns ~seed] sweeps the space at every size
    in [ns], compiling each parameter point exactly once (compile
    phase) and simulating it once per size (simulate phase).  Each
    per-size result is identical to — and cached exactly like — the
    corresponding {!sweep}. *)

val clear_cache : unit -> unit
(** Drop the in-process sweep, verdict and code-class memos
    (persistent stores, the branch-probability memo and the report
    rankings survive). *)

type strategy =
  | Exhaustive
  | Random of int  (** budget *)
  | Annealing of int  (** iterations *)
  | Genetic of int * int  (** generations, population *)
  | Nelder_mead of int  (** restarts *)
  | Static  (** paper: occupancy-suggested thread counts *)
  | Static_rules  (** paper: static + intensity rule *)

val strategy_name : strategy -> string

val autotune :
  ?space:Space.t ->
  ?journal:Journal.t ->
  strategy:strategy ->
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  seed:int ->
  Search.outcome
(** Run one strategy end to end.  With [journal], every evaluation is
    recorded for later {!Journal.replay}. *)
