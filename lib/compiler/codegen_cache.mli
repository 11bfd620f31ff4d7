(** Code classes and backend memoization across the launch-geometry
    axes.

    TC and BC are launch parameters: lowering bakes them only into the
    per-block execution weights, the execution profile and the
    [SC * TC * 4] staging buffer.  A code class — (kernel, device, UIF,
    SC, fast-math) and the dynamic shared memory — is lowered once per
    process with {!Lowering.code}; each point binds its geometry with
    {!Lowering.instantiate}.  The kernel is matched by physical
    identity (kernels are immutable; an equal but distinct value costs
    one extra lowering, never a wrong answer) and typechecked only on a
    class miss.

    Scheduling, register allocation, the static coalescing analysis
    and the geometry-free part of the block table read only the
    instruction streams, so classes with the same code share one
    backend result through a table keyed by (device identity,
    {!Gat_isa.Fingerprint.program} digest).  The digest is computed
    once per class, by the miss that lowers it.

    None of the backend results is persisted: each is cheaper to
    recompute on a class miss than to write and read back through the
    {!Artifacts} store, which holds only verifier reports.

    Thread-safe; sweeps compile variants from parallel pool workers.
    Both in-memory tables are single-flight {!Gat_util.Memo}s: entries
    are immutable once published, and concurrent misses on one class
    (or one code shape) lower (or compute) it once, so the class
    counters do not depend on the worker count.  Counters:
    [cache.codegen.hits] / [cache.codegen.misses] (class lookups; a
    caller that waited for a class another worker was lowering counts
    as a hit). *)

type outcome = {
  program : Gat_isa.Program.t;
      (** Physical-register form, carrying the point's weights. *)
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
  digest : string;  (** [Gat_isa.Fingerprint.program] of the class's code. *)
  shape : Block_table.shape;
      (** Geometry-free block table of [program], shared by every
          class with the same code. *)
}

val run :
  gpu:Gat_arch.Gpu.t ->
  Gat_ir.Kernel.t ->
  Params.t ->
  (Gat_isa.Program.t * Profile.t * outcome, string) result
(** [run ~gpu kernel params] instantiates [params]' launch geometry on
    its code class — the virtual program with its weights, the
    execution profile and the backend result — lowering the class and
    computing or sharing its backend result on a miss.  [Error] carries
    the {!Gat_ir.Typecheck} diagnostic of an ill-typed kernel (checked
    once per class, like the lowering).  The
    caller must already have checked [params] with {!Params.validate}. *)

type stats = { classes : int; backends : int; hits : int; misses : int }

val stats : unit -> stats
(** Code classes (ill-typed ones included) and backend results held,
    class hits and misses since the last {!clear}. *)

val clear : unit -> unit
(** Drop every class and backend result. *)
