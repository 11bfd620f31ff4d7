(** Cooperative cancellation for long-running loops.

    {!install} replaces the default SIGINT behaviour with a flag set;
    loops that can stop cleanly (the sweep engine, between blocks) poll
    {!requested} and shut down at the next safe point — after a shard
    holder publishes its prefix — instead of dying mid-write.  Install it only in
    binaries that actually poll, or Ctrl-C stops stopping things. *)

val install : unit -> unit
(** Route SIGINT to the flag (idempotent; ignores platforms without
    signal support). *)

val requested : unit -> bool
(** True once SIGINT was received (or {!request} called). *)

val request : unit -> unit
(** Set the flag programmatically (tests). *)

val reset : unit -> unit
(** Clear the flag. *)
