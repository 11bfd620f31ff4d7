(** Lowering: kernel IR + tuning parameters -> virtual-ISA program.

    This is the `nvcc` stand-in.  It implements:
    - thread mapping: the kernel's parallel loop becomes a grid-stride
      loop over [TC * BC] threads ([i = blockIdx*blockDim + threadIdx],
      stride [gridDim*blockDim]);
    - internal unrolling of sequential loops by UIF with a guarded main
      loop (stride [UIF]) and a stride-1 remainder loop — no integer
      division is emitted for the split, matching production compilers;
    - instruction selection per type, with [-use_fast_math] choosing
      single-instruction SFU approximations over Newton-refined
      sequences for divide/sqrt/exp/log/sin/cos;
    - shared-memory staging allocation for SC > 1;
    - per-block execution weights (polynomials in N from affine trip
      counts, divided across threads) and active-fraction hints for
      thread-dependent conditionals.

    The produced program uses unbounded virtual registers;
    {!Regalloc.run} assigns the physical file afterwards. *)

val lower :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Params.t ->
  Gat_isa.Program.t * Profile.t
(** Lower one variant, returning the virtual-register program and its
    execution profile (exact block-issue counts, branch probabilities
    and memory-coalescing classes — see {!Profile}).
    The caller must already have checked the kernel with
    {!Gat_ir.Typecheck} and the parameters with {!Params.validate};
    {!Driver.compile}, the only caller, does both. *)
