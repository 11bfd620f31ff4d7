(** The compile log — what `nvcc --ptxas-options=-v` reports.

    Step 1 of the paper's static-analysis recipe is extracting exactly
    this information; the static analyzer consumes it together with the
    disassembled instruction stream. *)

type t = {
  kernel_name : string;
  target : Gat_arch.Compute_capability.t;
  registers : int;  (** Registers per thread (Ru). *)
  smem_static : int;  (** Static shared memory per block, bytes. *)
  smem_dynamic : int;  (** Dynamic shared memory per block, bytes. *)
  spill_loads : int;
  spill_stores : int;
  stack_frame : int;  (** Local-memory bytes per thread. *)
}

val of_program : Gat_isa.Program.t -> Regalloc.stats -> t

val render : t -> string
(** ptxas-style textual log, e.g.
    {v
    ptxas info    : Compiling entry function 'atax' for 'sm_35'
    ptxas info    : Function properties for atax
        0 bytes stack frame, 0 bytes spill stores, 0 bytes spill loads
    ptxas info    : Used 27 registers, 0 bytes smem
    v} *)
