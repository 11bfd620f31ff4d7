(* A fleet process that dies on cue, for tests that need another
   process's telemetry record:

     fleet_child.exe DIR SHARD PREFIX_FILE (sigterm | crash)

   It starts a telemetry session in DIR, takes the lease of shard SHARD
   and heartbeats a hold of it whose prefix is PREFIX_FILE's text.
   Then [sigterm] SIGTERMs itself with the crash dump handler
   installed, and [crash] releases the lease and crash-dumps, as a
   holder failing with an error does, and exits 0.  Anything else
   exits 3. *)

module Telemetry = Gat_util.Telemetry
module Lease = Gat_util.Lease

let () =
  match Sys.argv with
  | [| _; dir; shard; prefix_file; mode |] ->
      Telemetry.enable ~dir;
      Telemetry.install_signal_dump ();
      let owner = Lease.make_owner () in
      let lease = Filename.concat dir (Printf.sprintf "shard-%s.lease" shard) in
      let prefix = In_channel.with_open_bin prefix_file In_channel.input_all in
      let hold = { Telemetry.shard = int_of_string shard; owner; prefix } in
      if not (Lease.acquire ~path:lease ~owner && Lease.heartbeat ~path:lease hold)
      then exit 3;
      (match mode with
      | "sigterm" ->
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          (* The handler runs at the next poll point; sleeping is one. *)
          Unix.sleepf 10.
      | "crash" ->
          Lease.release ~path:lease ~owner;
          Telemetry.crash_dump ~reason:"internal error: boom";
          exit 0
      | _ -> ());
      exit 3
  | _ -> exit 3
