(** Live fleet view over a coordination directory ([gat monitor DIR]).

    Read-only: the table is built purely from the files the shard
    protocol already maintains — telemetry records
    ({!Gat_util.Telemetry}: held shard, points, latency histograms,
    reclaim counts, and the note of a process that stopped early), read
    header-only: the events logs beside them are never opened.
    One row per (host,pid) ever seen in the directory. *)

type row = {
  host : string;
  pid : int;
  shard : int option;  (** Held shard, while its record is fresh. *)
  points : int;  (** [sweep.points] from the latest snapshot. *)
  rate : float;  (** Points/s averaged since the process's anchor. *)
  p50_ns : int;  (** Block latency (compile+simulate) median. *)
  p99_ns : int;
  snapshot_age_s : float;  (** Seconds since the last telemetry flush. *)
  reclaimed : int;  (** [shard.leases_reclaimed] by this process. *)
  stopped : bool;
      (** The worker's record carries a note — it stopped early on a
          fatal error, SIGTERM or SIGINT; its row shows no held
          shard. *)
  note : string;
  gone : bool;
      (** On this host, [kill pid 0] fails with [ESRCH]: the process
          was SIGKILLed or has exited.  Its row shows no held shard. *)
}

val rows : ?now:float -> string -> row list * int
(** All workers visible under a directory, sorted by (host, pid),
    plus the number of corrupt snapshots skipped.  [now] (default
    [Unix.gettimeofday ()]) is injectable for tests. *)

val render_row : row -> string
(** One fixed-width, greppable line per worker (pure).  Its status is
    [stopped: NOTE], [gone], [running] (a held shard) or [idle Ns]
    (seconds since the last flush), first match wins. *)

val render : row list -> string
(** Header plus one line per row. *)
