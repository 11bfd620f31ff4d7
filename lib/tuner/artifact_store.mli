(** The byte budget over gat's persistent cache tree — the sweep cache
    ({!Disk_cache.cache}), the artifact store
    ({!Gat_compiler.Artifacts.cache}) and finished shard coordinations —
    for [gat cache gc]: evict least-recently-used files first.  Each
    store's own listing, counters and [clear] live on its
    {!Gat_util.Store.t}. *)

type gc_result = {
  files : int;  (** Candidate files examined. *)
  bytes : int;  (** Their total size before eviction. *)
  removed_files : int;
  removed_bytes : int;
}

val gc : max_bytes:int -> gc_result
(** Evict least-recently-used cache files (sweep entries, the [.ckpt]
    files older versions left, artifacts, orphaned temp files, and shard
    coordination state from directories with no live lease — see
    {!Shard.gc_candidates}) until the total is at most [max_bytes].  Live lease files and the
    in-flight partial checkpoints they protect are never candidates.
    Recency is [max(atime, mtime)] — honest under relatime mounts —
    with the path as a stable tiebreak.  Removal errors are skipped,
    never fatal. *)

val set_enabled : bool -> unit
(** Switch the artifact store ({!Gat_compiler.Artifacts.cache}) on or
    off. *)
