(** GPU machine descriptions: every hardware limit from Table I of the
    paper, for the four devices of its testbed.

    Field names follow the paper's notation where a superscript [cc]
    denotes a limit fixed by the compute capability and subscripts give
    the resource scope ([mp] = per multiprocessor, [b] = per block,
    [w] = per warp, [t] = per thread). *)

type t = {
  name : string;  (** Device name, e.g. ["M2050"]. *)
  cc : Compute_capability.t;  (** CUDA compute capability. *)
  global_mem_mb : int;  (** Global memory (MB). *)
  multiprocessors : int;  (** [mp]: number of SMs. *)
  cores_per_mp : int;  (** CUDA cores per SM. *)
  gpu_clock_mhz : int;  (** Core clock (MHz). *)
  mem_clock_mhz : int;  (** Memory clock (MHz). *)
  l2_cache_kb : int;  (** L2 cache (KB). *)
  const_mem_bytes : int;  (** Constant memory (bytes). *)
  smem_per_block : int;  (** [S{^cc}{_B}]: shared memory per block (bytes). *)
  smem_per_mp : int;  (** [S{^cc}{_mp}]: shared memory per SM (bytes). *)
  reg_file_size : int;  (** [R{^cc}{_fs}]: 32-bit registers per SM. *)
  warp_size : int;  (** [W{_B}]: threads per warp (32). *)
  threads_per_mp : int;  (** [T{^cc}{_mp}]: max resident threads per SM. *)
  threads_per_block : int;  (** [T{^cc}{_B}]: max threads per block. *)
  blocks_per_mp : int;  (** [B{^cc}{_mp}]: max resident blocks per SM. *)
  threads_per_warp : int;  (** [T{^cc}{_W}]: threads per warp (32). *)
  warps_per_mp : int;  (** [W{^cc}{_mp}]: max resident warps per SM. *)
  reg_alloc_unit : int;  (** [R{^cc}{_B}]: register allocation granularity. *)
  regs_per_thread : int;  (** [R{^cc}{_T}]: max registers per thread. *)
  mem_latency_cycles : float;
      (** Average global-memory latency in cycles (simulator substrate;
          not part of Table I — drawn from vendor microbenchmarks). *)
  l2_latency_cycles : float;  (** Average L2 hit latency (simulator). *)
}

val cuda_cores : t -> int
(** Total CUDA cores, [multiprocessors * cores_per_mp]. *)

val m2050 : t
(** Fermi Tesla M2050 (cc 2.0). *)

val k20 : t
(** Kepler Tesla K20 (cc 3.5). *)

val m40 : t
(** Maxwell Tesla M40 (cc 5.2). *)

val p100 : t
(** Pascal Tesla P100 (cc 6.0). *)

val all : t list
(** The testbed, in Table I column order. *)

val of_name : string -> t option
(** Lookup by case-insensitive device name or family name. *)

val of_cc : Compute_capability.t -> t
(** The testbed device with the given capability. *)

val family : t -> string
(** Family name of the device's capability. *)

val identity : t -> string
(** Every model-relevant hardware limit rendered into one stable line.
    Sweep-cache keys hash this string, so editing a device description
    invalidates its entries. *)
