(** The persistent content-addressed artifact store.

    One MD5-sealed file per backend-stage result under
    [<cache root>/artifacts/], keyed by a structural hash of exactly
    the stage's inputs: the weight-free {!Gat_isa.Fingerprint} digest
    of the input code, the {!Gat_arch.Gpu.identity} of the device, the
    stage-relevant scalar parameters, and a per-stage format version.
    Variants that differ only in the launch geometry (TC, BC) or the
    problem size N key identically and share every stored result —
    across runs and across processes — while a one-instruction edit
    invalidates only the entries whose input digests moved.

    Hard invariant: a store-served result is bit-identical to a
    recomputed one.  Floats travel as [%h] hex literals and code as
    [Instruction.to_string] lines, both exact round-trips; corruption,
    truncation or a format-version mismatch reads as a miss, never as
    wrong data.  I/O failure degrades the store (warn once, latch,
    compute uncached) exactly like the sweep cache.

    Chaos hooks: the [artifact-read] / [artifact-write] fault sites.
    Observability: [artifact.{hits,misses,stores,degraded_writes,
    bytes_read,bytes_written}] counters plus per-stage
    [artifact.<stage>.{hits,misses}]. *)

val dir : unit -> string
(** The artifact directory, [<cache root>/artifacts] — shares
    {!Gat_util.Cache_dir.root} with the sweep cache. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** [false] makes every find a silent [None] and every store a no-op
    ([gat --no-cache]). *)

val degraded : unit -> bool
(** The store hit an I/O failure and has latched itself off for
    writes. *)

val reset_degraded : unit -> unit

type stats = { hits : int; misses : int; stores : int; degraded_writes : int }

val stats : unit -> stats
(** Aggregate process-lifetime counters (all stages combined). *)

val reset_stats : unit -> unit

val versions : (string * string) list
(** The per-stage format versions, [(stage, "stage/N")] — each
    participates in its stage's keys, so bumping one orphans exactly
    that stage's entries. *)

(** {1 Stage keys}

    Keys are stable hex strings; compute once, then [find_*] and (on a
    miss) [store_*] with the same key.  All keys are weight-free: the
    launch geometry never moves them. *)

val sched_key : Gat_isa.Instruction.t list -> string
(** Per block body — the unit of the list scheduler. *)

val ra_key : gpu:Gat_arch.Gpu.t -> Gat_isa.Program.t -> string
(** Per {e scheduled} program and device. *)

val coal_key : gpu:Gat_arch.Gpu.t -> string -> string
(** [coal_key ~gpu digest]: per {e virtual} program (its
    {!Gat_isa.Fingerprint.program} [digest], as carried by
    [Driver.compiled]) and device. *)

val verdict_key : threads_per_block:int -> string -> string
(** [verdict_key ~threads_per_block digest]: per {e virtual} program
    digest and TC; the verifier never reads the device, the block
    count or the problem size. *)

(** {1 Stage entries} *)

val find_sched : key:string -> Gat_isa.Instruction.t list option
(** The scheduled body.  The caller re-attaches label, terminator and
    the variant's own weight. *)

val store_sched : key:string -> Gat_isa.Instruction.t list -> unit

val find_ra :
  key:string -> (Gat_isa.Basic_block.t list * Regalloc.stats) option
(** Allocated output blocks (weight-free: [Weight.one] placeholders —
    the caller reweights positionally) plus the allocation stats. *)

val store_ra : key:string -> Gat_isa.Program.t -> Regalloc.stats -> unit

val find_coal :
  key:string -> (string * Gat_analysis.Coalescing.access list) list option
(** The per-block memory summary, block order and emission order
    preserved. *)

val store_coal :
  key:string -> (string * Gat_analysis.Coalescing.access list) list -> unit

val find_verdict : key:string -> Gat_analysis.Verify.report option
(** The full safety report, findings included. *)

val store_verdict : key:string -> Gat_analysis.Verify.report -> unit

(** {1 Maintenance} — consumed by [Gat_tuner.Artifact_store] and the
    [gat cache] subcommands. *)

val entries : unit -> string list
(** Absolute paths of every [.art] entry, sorted by name. *)

val disk_usage : unit -> int * int
(** [(files, bytes)] over {!entries}. *)

val clear : unit -> int
(** Delete every entry; returns the number removed. *)
