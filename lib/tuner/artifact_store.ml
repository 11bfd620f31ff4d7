(* The byte budget over every persistent cache file gat owns.

   The compile-side store ({!Gat_compiler.Artifacts}) and the
   sweep-side cache ({!Disk_cache}) share one directory tree under
   [Gat_util.Cache_dir.root]; {!gc} bounds all of it.  Eviction is
   least-recently-used by access time: content-addressed entries carry
   no internal ordering, so the filesystem's atime (or mtime, whichever
   is younger — relatime mounts update atime lazily) is the honest
   recency signal, and evicting the coldest files first keeps the
   entries a daily sweep actually touches. *)

type gc_result = {
  files : int;  (** Candidate files examined. *)
  bytes : int;  (** Their total size before eviction. *)
  removed_files : int;
  removed_bytes : int;
}

(* Sweep entries, older versions' [.ckpt] files and artifacts — each
   store's own listing, orphaned temp files included — plus shard
   coordination state, but only from directories with no live lease:
   gc must never yank a manifest, lease or in-flight partial checkpoint
   from under a running coordination. *)
let candidate_files () =
  Gat_util.Store.files Disk_cache.cache
  @ Gat_util.Store.files Gat_compiler.Artifacts.cache
  @ Shard.gc_candidates ()

type entry = { path : string; size : int; used : float }

let stat_entry path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st ->
      Some
        {
          path;
          size = st.Unix.st_size;
          used = Float.max st.Unix.st_atime st.Unix.st_mtime;
        }

let gc ~max_bytes =
  let entries = List.filter_map stat_entry (candidate_files ()) in
  let files = List.length entries in
  let bytes = List.fold_left (fun acc e -> acc + e.size) 0 entries in
  (* Coldest first; name breaks ties so the eviction order is stable
     under equal timestamps. *)
  let order =
    List.sort
      (fun a b ->
        match Float.compare a.used b.used with
        | 0 -> String.compare a.path b.path
        | c -> c)
      entries
  in
  let excess = ref (bytes - max_bytes) in
  let removed_files = ref 0 in
  let removed_bytes = ref 0 in
  List.iter
    (fun e ->
      if !excess > 0 then
        match Sys.remove e.path with
        | () ->
            excess := !excess - e.size;
            incr removed_files;
            removed_bytes := !removed_bytes + e.size
        | exception Sys_error _ -> ())
    order;
  { files; bytes; removed_files = !removed_files; removed_bytes = !removed_bytes }

let set_enabled = Gat_util.Store.set_enabled Gat_compiler.Artifacts.cache
