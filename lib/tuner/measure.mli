(** The paper's measurement protocol (Section IV-A): each variant runs
    ten times and the fifth overall trial is the recorded time.

    Only [selected_trial] noise samples are actually drawn — the RNG
    stream is consumed in trial order, so the recorded time is
    bit-identical to drawing all [repetitions] and discarding the
    rest. *)

val repetitions : int
(** 10. *)

val selected_trial : int
(** 5 (1-indexed). *)

val time_of : Gat_compiler.Driver.compiled -> n:int -> rng:Gat_util.Rng.t -> float
(** Run the trial protocol on the simulator and return the selected
    trial's milliseconds. *)

val est_mix : Gat_compiler.Driver.compiled -> n:int -> Gat_core.Imix.t
(** [Gat_core.Imix.estimate_dynamic] of the compiled program at size
    [n], bit for bit, computed from the block table's static mixes and
    register-operand rows with each block's weight. *)

val evaluate_compiled :
  Gat_compiler.Driver.compiled -> n:int -> rng:Gat_util.Rng.t -> Variant.t
(** Measure a pre-compiled variant at size [n].  Compilation is
    size-independent, so the sweep engine compiles once per
    [(kernel, gpu, params)] and calls this per input size. *)

val evaluate :
  Gat_ir.Kernel.t ->
  Gat_arch.Gpu.t ->
  n:int ->
  rng:Gat_util.Rng.t ->
  Gat_compiler.Params.t ->
  (Variant.t, string) result
(** Compile and measure one parameter point; [Error] for invalid
    configurations (the autotuner skips them, as Orio skips variants
    that fail to build).  Equivalent to {!Gat_compiler.Driver.compile}
    followed by {!evaluate_compiled}. *)
