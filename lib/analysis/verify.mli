(** The static kernel safety verifier ([gat verify]).

    Aggregates the two safety passes over one compiled program:
    {!Barrier_safety} (no [BAR] under thread-dependent control flow)
    and {!Races} (no two distinct threads can touch overlapping
    shared-memory bytes with at least one write inside a barrier
    interval).  A program with no findings is {e verified safe} under
    the analyses' abstractions; findings make it unsafe and the sweep
    engine classifies the variant accordingly
    ({!Gat_tuner.Variant.unsafe}).

    The verdict depends only on the instruction structure and the
    launch's thread count — never on block weights, block count, or
    the problem size — which is what makes per-variant verdict caching
    ([Gat_tuner.Tuner.verdict]) sound across the (BC, N) axes.

    Verification is two steps.  {!analyze} reads the instruction
    structure alone: the CFG, the barrier intervals, the divergent
    barriers, the shared accesses with their affine addresses, and the
    race candidate pairs ({!Races.candidates}), each pass once.
    {!report} binds the thread count: it runs only the race-witness
    search ({!Races.witnesses}), the one step that reads TC.  A code
    class is analyzed once and reported at every TC.

    Observability: each {!analyze} increments [verify.analyzed] and
    runs inside a [verify.run] trace span; each {!report} increments
    [verify.checked] plus [verify.unsafe] /
    [verify.divergent_barriers] / [verify.races]. *)

type report = {
  program_name : string;
  threads_per_block : int;
  barrier_count : int;
  interval_count : int;  (** Barrier intervals = barriers + 1. *)
  shared_accesses : int;  (** LDS/STS instructions inspected. *)
  divergent_barriers : Barrier_safety.finding list;
  races : Races.finding list;
}

type facts = {
  name : string;  (** The program's name. *)
  barriers : int;
  accesses : int;  (** LDS/STS instructions inspected. *)
  divergent : Barrier_safety.finding list;
  candidates : Races.pair list;
}
(** Everything the verifier knows about a program before it reads TC. *)

val analyze : Gat_isa.Program.t -> facts

val report : threads_per_block:int -> facts -> report
(** The witness search at one TC over the analyzed facts. *)

val run : threads_per_block:int -> Gat_isa.Program.t -> report
(** [report ~threads_per_block (analyze program)]. *)

val safe : report -> bool
(** No findings of either kind. *)

val verdict : report -> string
(** ["SAFE"] or ["UNSAFE"]. *)

val summary : report -> string
(** One line: verdict plus finding counts, e.g.
    ["UNSAFE: 1 divergent barrier, 2 shared-memory races"]. *)

val render : report -> string
(** The stable plain-text report printed by [gat verify] and golden
    tests. *)
