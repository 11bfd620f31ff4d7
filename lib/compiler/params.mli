(** Tuning parameters of one code variant — the coordinates of the Orio
    search space (paper Table III / Fig. 3). *)

type t = {
  threads_per_block : int;  (** TC: threads per block. *)
  block_count : int;  (** BC: thread blocks launched (grid size). *)
  unroll : int;  (** UIF: unroll factor for sequential loops (>= 1). *)
  l1_pref_kb : int;  (** PL: preferred L1 size in KB (16 or 48). *)
  staging : int;  (** SC: shared-memory staging/prefetch depth (>= 1). *)
  fast_math : bool;  (** CFLAGS: [-use_fast_math]. *)
}

val default : t
(** TC=128, BC=96, UIF=1, PL=16, SC=1, precise math — a mid-space
    point. *)

val make :
  ?threads_per_block:int ->
  ?block_count:int ->
  ?unroll:int ->
  ?l1_pref_kb:int ->
  ?staging:int ->
  ?fast_math:bool ->
  unit ->
  t
(** {!default} with overrides. *)

val validate : Gat_arch.Gpu.t -> t -> (unit, string) result
(** Device-specific validity: TC within (0, threads-per-block limit],
    BC positive, UIF in [1, 8], PL one of 16/48, SC in [1, 8]. *)

val total_threads : t -> int
(** TC * BC. *)

val cflags : t -> string
(** The compiler-flag string: [""] or ["-use_fast_math"]. *)

val to_string : t -> string
(** Compact form, e.g. ["TC=128 BC=96 UIF=2 PL=16 SC=1 CFLAGS="]. *)

val compare : t -> t -> int
(** Lexicographic order, usable as a map key. *)
