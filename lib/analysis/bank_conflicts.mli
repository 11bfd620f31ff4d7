(** Static shared-memory bank-conflict analysis.

    Shared memory is striped across 32 banks.  Fermi, Maxwell and
    Pascal stripe in 4-byte words; Kepler's banks are 8 bytes wide.  A
    warp's access replays once per additional distinct word that any
    single bank must serve: with per-lane byte stride [s] and bank
    width [w], lane [k] touches word [k·s / w], and the replay factor
    is the maximum, over banks, of the number of distinct words mapping
    to that bank.  Lanes reading the same word broadcast for free
    (replay 1); stride [w] is conflict-free; stride [32·w] is a 32-way
    conflict (replay 32). *)

type mode = B4 | B8

val mode_of_cc : Gat_arch.Compute_capability.t -> mode
val bank_width_bytes : mode -> int
val banks : int
(** Always 32. *)

val replay_of_stride : mode -> int -> int
(** Replay factor for a constant per-lane byte stride. *)

type conflict = {
  block_index : int;
  block_label : string;
  instr_index : int;
  op : Gat_isa.Opcode.t;
  kind : [ `Load | `Store ];
  tid_stride : Affine.coeff;
  replay : int;  (** ≥ 1; 1 means conflict-free. *)
}

val conflicted : conflict -> bool

val of_sites : Gat_arch.Gpu.t -> Affine.access_site list -> conflict list
