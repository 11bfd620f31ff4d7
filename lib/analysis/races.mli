(** Shared-memory race detection: the two-thread abstraction.

    Within each barrier interval ({!Gat_cfg.Intervals}), every pair of
    [LDS]/[STS] accesses with at least one write is checked for a pair
    of {e distinct} symbolic threads [t1 <> t2] in [[0, TC)] that can
    touch overlapping 4-byte shared addresses.  Addresses come from
    the {!Affine} per-lane summaries: [base + tid_stride·t +
    iter_stride·j].  When both accesses resolve to known constant
    bases and per-lane strides, the checker searches for an exact
    thread-pair witness (linear in TC); loop-carried iteration strides
    are handled by a gcd congruence over the iteration lattice; and
    anything the affine domain cannot resolve (unknown strides,
    unknown uniform bases) is conservatively reported as a potential
    race — the analysis is a may-analysis, sound for race freedom but
    not complete.

    One benign exception: two stores whose stored values are both the
    {e same known constant} cannot produce an observable race (every
    interleaving leaves the same bytes), which admits the compiler's
    own staging prologue — all threads store literal zero to the same
    staging slots before the barrier.

    The check is two steps, and only the second reads TC:
    {!candidates} keeps the pairs that survive the store, phase and
    benign-value filters, which depend on the instruction structure
    alone; {!witnesses} runs the thread-pair witness search over them
    for one TC.  A code class is filtered once and searched per TC
    ({!Verify.analyze} / {!Verify.report}). *)

type access = {
  block_index : int;
  block_label : string;
  instr_index : int;  (** Position within the block body. *)
  op : Gat_isa.Opcode.t;  (** [LDS] or [STS]. *)
  address : Affine.value;  (** Abstract byte address. *)
  stored : Affine.value option;  (** The value stored, for [STS]. *)
  predicated : bool;  (** Guarded accesses are assumed executed. *)
}

type kind = Write_write | Read_write

type witness =
  | Exact of int * int
      (** Two distinct thread indices that touch overlapping bytes. *)
  | May of string
      (** Conservative: why the pair could not be proved disjoint. *)

type finding = { first : access; second : access; kind : kind; witness : witness }

type pair = { pair_first : access; pair_second : access; pair_kind : kind }
(** A candidate: two accesses, at least one a store, that may share a
    barrier phase and are not a benign same-constant store pair. *)

val shared_accesses : Gat_cfg.Cfg.t -> access list
(** Every shared-memory access, in block/program order. *)

val candidates : Gat_cfg.Intervals.t -> access list -> pair list
(** The candidate pairs among the accesses, ordered by (first, second)
    program position.  Reads no TC. *)

val witnesses : threads_per_block:int -> pair list -> finding list
(** The candidates with a witness at this TC, in the same order: all
    racing pairs.  The only step that reads [threads_per_block], which
    bounds the symbolic thread indices. *)

val address_to_string : Affine.value -> string
(** Stable rendering, e.g. ["0 + 4·t"], ["u + 4n·t + 4·j"]. *)

val access_to_string : access -> string
val finding_to_string : threads_per_block:int -> finding -> string
