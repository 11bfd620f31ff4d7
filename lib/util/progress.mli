(** Live sweep progress on stderr.

    On a TTY the line redraws in place at most every 100 ms
    ([atax/k20 1280/5120 25%  410 pts/s  ETA 9.4 s  cache 87%
    failed 0]); on a non-TTY stderr it degrades to one full line
    every ~2 s plus a final line from {!finish}, so CI logs stay
    greppable.  Never writes to stdout. *)

type t

val create :
  ?out:out_channel -> ?tty:bool -> label:string -> total:int -> unit -> t
(** [create ~label ~total ()] starts the clock.  [tty] defaults to
    [Unix.isatty stderr]; [out] defaults to [stderr] (tests pass a
    buffer-backed channel). *)

val update :
  t ->
  done_:int ->
  failures:int ->
  ?cache_hit_pct:int ->
  ?workers:int ->
  ?reclaimed:int ->
  unit ->
  unit
(** Report progress; renders only when the refresh interval has
    elapsed, so callers can invoke it as often as they like.
    [?workers] is the number of external worker processes attached to
    a sharded sweep and [?reclaimed] the leases reclaimed from dead
    ones.  Each is rendered only when positive, so plain sweeps keep
    the short line. *)

val finish :
  t ->
  done_:int ->
  failures:int ->
  ?cache_hit_pct:int ->
  ?workers:int ->
  ?reclaimed:int ->
  unit ->
  unit
(** Render one final (unthrottled) line; on a TTY also terminates the
    in-place line with a newline. *)

val render_line :
  ?workers:int ->
  ?reclaimed:int ->
  label:string ->
  total:int ->
  done_:int ->
  failures:int ->
  cache_hit_pct:int option ->
  elapsed_s:float ->
  unit ->
  string
(** The pure formatter behind {!update}/{!finish}, exposed for
    tests. *)
