(** Replayable tuning journal — the paper's Section VII knowledge-
    discovery capability: "by recording the decisions and code variants
    at each step, it is also possible to replay tuning with empirical
    testing for purposes of validation".

    A journal records every (parameter point, measured time) decision an
    autotuning run makes, serializes to CSV, and can be replayed: each
    recorded point is re-measured with a fresh objective and compared
    against the recorded time, quantifying how stable the tuning
    decisions are. *)

type entry = {
  index : int;  (** Evaluation order, starting at 1. *)
  params : Gat_compiler.Params.t;
  time_ms : float option;  (** [None] for invalid variants. *)
}

type t = {
  kernel : string;
  gpu : string;
  n : int;
  seed : int;
  strategy : string;
  mutable entries_rev : entry list;
      (** Access through {!entries}/{!length}, which take [lock] —
          recording is thread-safe, so an objective wrapped by
          {!recording} may be evaluated by several
          {!Gat_util.Pool} workers at once. *)
  lock : Mutex.t;
}

val create :
  kernel:string -> gpu:string -> n:int -> seed:int -> strategy:string -> t

val recording : t -> Search.objective -> Search.objective
(** Wrap an objective so every evaluation is appended to the journal. *)

val entries : t -> entry list
(** In evaluation order. *)

val length : t -> int

(** {2 Serialization} *)

val to_string : t -> string
(** CSV with a [#key=value] metadata preamble. *)

val of_string : string -> (t, string) result
val save : t -> string -> unit
val load : string -> (t, string) result

(** {2 Replay} *)

type replay_report = {
  total : int;  (** Entries replayed. *)
  validity_matches : int;  (** Valid/invalid status reproduced. *)
  max_relative_deviation : float;
      (** Largest relative time difference among entries valid in both
          runs (0 when none). *)
}

val replay : t -> Search.objective -> replay_report
(** Re-evaluate every recorded point against [objective]. *)
