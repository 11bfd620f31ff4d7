(* Atomic filesystem leases for multi-process coordination.

   A lease is a small MD5-sealed file created once with O_EXCL, so
   exactly one process can hold it however many race for the create:
   the filesystem is the arbiter, and it works on any shared directory
   (including one mounted from several machines).  The body names the
   owner (host, pid, a per-acquisition token).  The heartbeat is the
   holder's telemetry record next to it, republished after every block
   anyway; anyone observing a lapsed heartbeat may break the lease and
   take over.

   Clock model: a heartbeat is a file mtime compared against this
   process's wall clock, so a lease TTL should be generous (seconds,
   not milliseconds) relative to plausible clock skew.  Breaking a
   lease is advisory — between the expiry check and the [unlink]
   another process may have broken and re-acquired it, in which case
   two holders can briefly coexist.  Coordination layers built on
   leases must therefore tolerate duplicate work; the sweep sharding
   layer does, because duplicate shard evaluations produce
   byte-identical parts. *)

let magic = "gat-lease 2"

let m_acquired = Metrics.counter "lease.acquired"
let m_acquire_lost = Metrics.counter "lease.acquire_lost"
let m_renew_soft = Metrics.counter "lease.renew_soft_failures"
let m_lost = Metrics.counter "lease.lost"
let m_released = Metrics.counter "lease.released"
let m_broken = Metrics.counter "lease.broken"

type info = { owner : string; pid : int; host : string }

let now () = Unix.gettimeofday ()
let hostname () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

let make_owner () =
  (* Unique per acquisition context: host and pid identify the
     process, the monotonic-clock nonce separates successive owners
     from a recycled pid. *)
  Printf.sprintf "%s:%d:%Lx" (hostname ()) (Unix.getpid ()) (Metrics.now_ns ())

let body ~owner =
  let buf = Buffer.create 160 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "owner %s\npid %d\nhost %s\n" owner (Unix.getpid ())
    (hostname ());
  Sealed_file.seal buf;
  buf

let parse payload =
  try
    Scanf.sscanf payload "%s@\nowner %s@\npid %d\nhost %s@\n%!"
      (fun m owner pid host ->
        if String.equal m magic then Some { owner; pid; host } else None)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let read path = Option.bind (Sealed_file.read path) parse

let acquire ~path ~owner =
  Cache_dir.ensure (Filename.dirname path);
  match
    Fault.inject ~site:"lease-acquire" ~key:(Filename.basename path);
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error _ ->
      (* EEXIST: someone else holds it.  Other errors (unwritable
         directory) also read as "not acquired" — the caller treats a
         lost race and an unusable directory the same way. *)
      Metrics.incr m_acquire_lost;
      false
  | exception Fault.Injected _ ->
      Metrics.incr m_acquire_lost;
      false
  | fd ->
      let s = Buffer.contents (body ~owner) in
      (try
         let pos = ref 0 in
         while !pos < String.length s do
           pos := !pos + Unix.write_substring fd s !pos (String.length s - !pos)
         done
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Metrics.incr m_acquired;
      true

let heartbeat ~path (hold : Telemetry.hold) =
  match read path with
  | Some i when String.equal i.owner hold.owner ->
      (match
         Fault.inject ~site:"lease-renew" ~key:(Filename.basename path)
       with
      | () -> Telemetry.flush ~hold ()
      | exception Fault.Injected _ ->
          (* Soft failure: still the owner, the old heartbeat stands.
             The holder keeps working; it only loses the lease if the
             heartbeat actually lapses and someone breaks it. *)
          Metrics.incr m_renew_soft);
      true
  | Some _ | None ->
      (* Someone else owns it, it was broken, or the body is torn by a
         racing acquire: either way this holder must stand down. *)
      Metrics.incr m_lost;
      false

let release ~path ~owner =
  match read path with
  | Some i when String.equal i.owner owner -> (
      try
        Sys.remove path;
        Metrics.incr m_released
      with Sys_error _ -> ())
  | Some _ | None -> ()

let mtime path =
  match Unix.stat path with
  | st -> st.Unix.st_mtime
  | exception Unix.Unix_error _ -> Float.neg_infinity

let live ~ttl path =
  (* An unreadable body — possibly a racing acquire mid-write — has
     only its own mtime: a torn write gets one TTL of grace. *)
  let beat =
    match read path with
    | Some i ->
        mtime
          (Telemetry.snapshot_path ~dir:(Filename.dirname path) ~host:i.host
             ~pid:i.pid)
    | None -> Float.neg_infinity
  in
  Float.max (mtime path) beat +. ttl > now ()

let break_if_expired ~ttl path =
  if Sys.file_exists path && not (live ~ttl path) then
    match Sys.remove path with
    | () ->
        Metrics.incr m_broken;
        true
    | exception Sys_error _ -> false
  else false
