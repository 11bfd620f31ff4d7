(** Compilation driver: the full `nvcc` pipeline for one code variant.

    lower (thread mapping, unrolling, instruction selection)
    -> schedule (load hoisting)
    -> register allocation (physical file, spills)
    -> compile log. *)

type compiled = {
  kernel : Gat_ir.Kernel.t;
  gpu : Gat_arch.Gpu.t;
  params : Params.t;
  ptx : Gat_isa.Program.t;
      (** Virtual-register form before scheduling and register
          allocation — what nvcc's PTX stage produces; render with
          {!Gat_isa.Ptx}. *)
  digest : string;
      (** [Gat_isa.Fingerprint.program ptx], computed once per compile:
          the weight-free key that {!Codegen_cache}, {!Artifacts} and
          the tuner's verdict cache share, so no cache hashes [ptx]
          again. *)
  program : Gat_isa.Program.t;  (** Physical registers, final code. *)
  log : Ptxas_info.t;
  alloc_stats : Regalloc.stats;
  profile : Profile.t;  (** Execution profile for the simulator. *)
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
      (** Static coalescing analysis of the variant's global accesses,
          grouped by block label in emission order — computed once at
          compile time on the virtual-register form (pre-spill, fully
          trackable addresses) and consumed by the simulator's memory
          model. *)
  block_table : Block_table.t;
      (** Flat per-block static summary (issue cycles, mixes,
          pre-resolved memory factors, residency) — the simulator's hot
          path reads only this, so every per-variant static property is
          derived once per compile and shared across input sizes.
          Rebuilt on every compile, never stored. *)
}

val compile :
  Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Params.t -> (compiled, string) result
(** Compile one variant; [Error] describes invalid parameters or an
    ill-typed kernel (never an internal failure). *)

val compile_exn : Gat_ir.Kernel.t -> Gat_arch.Gpu.t -> Params.t -> compiled
(** @raise Invalid_argument on [Error]. *)
