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

    Lowering runs in two steps, mirroring nvcc's one compile per code
    variant with TC and BC as launch parameters: {!code} emits the
    instruction streams of a code class — (kernel, device, UIF, SC,
    fast-math); TC and BC never shape code — and {!instantiate} binds
    one launch geometry to it.  The produced program uses unbounded
    virtual registers; {!Regalloc.run} assigns the physical file
    afterwards. *)

type code
(** One lowered code class: the virtual program without its per-block
    weights or dynamic shared memory, plus what instantiation needs to
    rebuild them and the execution profile.  Immutable and holding no
    mutable table, so one value can be instantiated from parallel pool
    workers. *)

val code :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> unroll:int -> staging:int ->
  fast_math:bool -> code
(** Lower the code class of a variant.  The caller must already have
    checked the kernel with {!Gat_ir.Typecheck} and the parameters with
    {!Params.validate}; {!Codegen_cache}, the only caller, does both. *)

val smem_dynamic : staging:int -> tc:int -> int
(** Dynamic shared memory per block of a variant: [SC * TC * 4] bytes
    of staging buffer when [SC > 1], else 0. *)

val instantiate :
  code -> tc:int -> bc:int -> Gat_isa.Program.t * Profile.t
(** Bind a launch geometry: the virtual-register program with its
    per-block execution weights and dynamic shared memory, and its
    execution profile (exact block-issue counts, branch probabilities
    — see {!Profile}).  Replays the weight arithmetic of a one-step
    lowering operation for operation, so the result is bit-identical
    to it. *)
