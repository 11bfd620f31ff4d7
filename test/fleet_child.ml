(* A fleet process that dies on cue, for tests that need another
   process's telemetry record:

     fleet_child.exe DIR SHARD PREFIX_FILE (sigterm | crash)

   It starts a telemetry session in DIR, takes the lease of shard SHARD
   and heartbeats a hold of it whose prefix is PREFIX_FILE's text.
   Then [sigterm] SIGTERMs itself with the crash dump handler
   installed, and [crash] releases the lease and crash-dumps, as a
   holder failing with an error does, and exits 0.

     fleet_child.exe DIR coordinate

   coordinates, with the caches off, the one-shard sweep whose manifest
   is already under DIR, in blocks of 16 points.  It requests a cancel
   once its first block is flushed, so the sweep stops at the next
   block boundary and the process exits 130 through the crash dump,
   as [gat sweep --shards 1] does on SIGINT.  Anything else exits 3. *)

module Telemetry = Gat_util.Telemetry
module Lease = Gat_util.Lease
module Shard = Gat_tuner.Shard

let coordinate dir =
  Gat_util.Store.set_enabled Gat_tuner.Disk_cache.cache false;
  Gat_util.Store.set_enabled Gat_compiler.Artifacts.cache false;
  match Shard.read_manifest dir with
  | None -> exit 3
  | Some m -> (
      let kernel = Option.get (Gat_workloads.Workloads.find m.Shard.kernel) in
      let gpu = Option.get (Gat_arch.Gpu.of_name m.Shard.gpu) in
      let progress ~done_ ~total:_ ~failures:_ ~workers:_ ~reclaimed:_ =
        if done_ > 0 then Gat_util.Cancel.request ()
      in
      match
        Shard.coordinate ~jobs:1 ~block:16 ~ttl:m.Shard.ttl ~progress ~dir
          ~shards:1 m.Shard.space kernel gpu ~n:m.Shard.n ~seed:m.Shard.seed
      with
      | _ -> exit 0
      | exception Gat_util.Error.Error e ->
          Telemetry.crash_dump ~reason:(Gat_util.Error.to_string e);
          exit (Gat_util.Error.exit_code e.Gat_util.Error.stage))

let () =
  match Sys.argv with
  | [| _; dir; "coordinate" |] -> coordinate dir
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
