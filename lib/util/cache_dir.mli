(** Resolution of the persistent cache root.

    Every on-disk cache — sweep entries, shard coordination state, the
    artifact store — lives under one root directory so maintenance ([gat cache
    stats|clear|gc]) sees all of it.  Resolution order: [GAT_CACHE_DIR],
    then [XDG_CACHE_HOME/gat], then [~/.cache/gat], then a
    temp-directory fallback. *)

val root : unit -> string
(** The cache root (not created; see {!ensure}). *)

val ensure : string -> unit
(** [mkdir -p], silently tolerating races and pre-existing paths. *)
