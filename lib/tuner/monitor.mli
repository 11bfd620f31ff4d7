(** Live fleet view over a coordination directory ([gat monitor DIR]).

    Read-only: the table is built purely from the files the shard
    protocol already maintains — telemetry records
    ({!Gat_util.Telemetry}: held shard, points, latency histograms,
    reclaim counts, and the crash note of a process that died), read
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
  crashed : bool;
      (** The worker's record carries a crash note; its row shows no
          held shard. *)
  crash_note : string;
}

val rows : ?now:float -> string -> row list * int
(** All workers visible under a directory, sorted by (host, pid),
    plus the number of corrupt snapshots skipped.  [now] (default
    [Unix.gettimeofday ()]) is injectable for tests. *)

val header : string
(** The table's fixed-width column header. *)

val render_row : row -> string
(** One fixed-width, greppable line per worker (pure). *)

val render : row list -> string
(** Header plus one line per row. *)
