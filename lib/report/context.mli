(** Shared experiment configuration: which devices, kernels, sizes and
    seed every report uses, so the whole evaluation is reproducible from
    one number.

    Sweeps are served by the tuner's sweep cache
    ({!Gat_tuner.Tuner.cached}); the multi-size sweeps run through the
    compile-sharing {!Gat_tuner.Tuner.sweep_multi} engine (each variant
    is compiled once, then simulated at every input size it misses),
    and pooled rankings are computed once however many reports ask. *)

val seed : int
(** 42. *)

val gpus : Gat_arch.Gpu.t list
(** The Table I testbed. *)

val kernels : Gat_ir.Kernel.t list
(** The Table IV kernels. *)

val eval_size : Gat_ir.Kernel.t -> int
(** Problem size used for the sweep-based experiments: the middle of
    the paper's five input sizes. *)

val sweep : Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Gat_tuner.Variant.t list
(** The exhaustive 5,120-variant evaluation for a kernel/device pair
    at {!eval_size} (served by the tuner's sweep cache). *)

val pruned :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Gat_tuner.Space.t -> float * float
(** [(reduction, quality)] of a sub-space of {!Gat_tuner.Space.paper}:
    the fraction of the paper space it avoids, and the {!sweep}'s best
    time over the whole space divided by its best time over the
    sub-space's points (0 when none of them is a valid, safe variant).
    Read off the sweep: nothing is compiled or simulated again. *)

val sweeps :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> (int * Gat_tuner.Variant.t list) list
(** One exhaustive sweep per paper input size, sharing one compile
    phase across all sizes (each served by the tuner's sweep cache). *)

val pooled_ranking : Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Gat_tuner.Ranking.t
(** Rank variants within each input size, then pool the rank-1 and
    rank-2 halves across sizes — the population behind the paper's
    Fig. 4 histograms and Table V statistics (memoized per process). *)
