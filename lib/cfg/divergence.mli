(** Thread-dependence and branch-divergence analysis.

    A value is thread-dependent if it derives from [%tid.x] or
    [%laneid] — the registers that differ between lanes of a warp.  A
    conditional branch guarded by a thread-dependent predicate can make
    lanes of one warp take different paths, serializing execution (the
    paper's Fig. 1 problem).  The analysis is a forward may-taint
    problem on the generic {!Dataflow} worklist solver: per-block taint
    sets joined by union, with no kill (a register that may be
    lane-varying on some path stays suspect).  Blocks unreachable from
    the entry contribute nothing. *)

type t

val compute : Cfg.t -> t

val divergent_branches : t -> int list
(** Node indices whose terminator is a conditional branch on a
    thread-dependent predicate, in program order. *)

val branch_count : t -> int
(** Total conditional branches in the program. *)

val divergent_fraction : t -> float
(** [divergent branches / conditional branches]; 0 when branch-free. *)
