(* One resolution rule for every on-disk cache the system keeps —
   sweep entries, shard coordination state and the content-addressed
   artifact store all live under the same root so [gat cache] can manage them
   together. *)

let root () =
  match Sys.getenv_opt "GAT_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "gat"
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              Filename.concat (Filename.concat h ".cache") "gat"
          | _ -> Filename.concat (Filename.get_temp_dir_name ()) "gat-cache"))

let rec ensure d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then ensure parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end
