(* Processes, files and host facts for the benchmark.  The orchestrator
   runs every measured phase as a child process of this same binary;
   children report back through small tab-separated result files. *)

let now_ns = Gat_util.Metrics.now_ns
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let nproc = Domain.recommended_domain_count ()

(* Worker count for the parallel phases: every core, at most four. *)
let host_jobs = min nproc 4

(* ---- files ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let fresh_dir path =
  rm_rf path;
  Gat_util.Cache_dir.ensure path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
  Sys.rename tmp path

(* Peak resident set of this process, in KiB (Linux [VmHWM]). *)
let peak_rss_kb () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' status)

(* ---- result records: one tab-separated record per line ---- *)

let records_of_string s =
  List.filter_map
    (fun line -> if line = "" then None else Some (String.split_on_char '\t' line))
    (String.split_on_char '\n' s)

let record_line fields = String.concat "\t" fields ^ "\n"

(* ---- child processes ---- *)

(* The children inherit the environment minus every GAT_ setting (a
   stray fault-injection or scheduler variable would change what is
   measured), plus their own cache root and worker count. *)
let child_env ~cache ~jobs =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"GAT_" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    (("GAT_CACHE_DIR=" ^ cache) :: Printf.sprintf "GAT_JOBS=%d" jobs :: inherited)

let spawn ~env args =
  let exe = Sys.executable_name in
  (* Children write nothing to stdout that the caller parses: their
     chatter goes to stderr so the caller's last stdout line stays its
     own. *)
  Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin
    Unix.stderr Unix.stderr

exception Timeout

(* Reap [pid], killing it if it outlives [deadline] (a [now_ns] value).
   Polling keeps the wait interruptible without signal handlers; the
   millisecond tick is far below the shortest phase measured. *)
let wait ~deadline pid =
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Int64.compare (now_ns ()) deadline > 0 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          raise Timeout
        end;
        Unix.sleepf 0.001;
        loop ()
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let deadline_in seconds =
  Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9))