(** Eq. 6: execution-time estimation from static instruction mixes.

    [f(N) = cf*Ofl + cm*Omem + cb*Octrl + cr*Oreg], where the
    coefficients are the cycles-per-instruction of each coarse class on
    the target architecture (reciprocal Table II throughputs).  The
    estimate is a relative cost, not an absolute time: the paper
    normalizes both the estimate and the measured times before
    comparing them (Fig. 5). *)

val cost : Gat_arch.Gpu.t -> Imix.t -> float
(** The Eq. 6 weighted sum over a mix (static or estimated dynamic). *)

val cost_per_category : Gat_arch.Gpu.t -> Imix.t -> float
(** A finer-grained variant that weights every Table II category by its
    own CPI instead of the class average — used by the ablation bench to
    quantify what the class-level coefficients lose. *)

val rank_order : float array -> int array
(** Permutation that sorts values ascending — the paper sorts variants
    by measured time before plotting normalized curves. *)

val normalized_error :
  predicted:float array -> measured:float array -> float
(** Mean absolute error between the two series after each is normalized
    to [0, 1] and the [measured] series' sort order is applied to both
    (the Fig. 5 methodology). *)
