(** Atomic filesystem leases for multi-process coordination.

    A lease is a small MD5-sealed file ({!Sealed_file}) created once
    with [O_EXCL]: however many processes race for {!acquire}, the
    filesystem grants it to exactly one.  The body records the owner
    token, pid and host, written and read as lines by {!Store}.  The heartbeat is the holder's telemetry
    record ([<host>.<pid>.telem] beside the lease; small, since a
    traced process's events live in a separate events log),
    republished by {!heartbeat} after every block; observers treat a lease whose
    heartbeat has lapsed as dead ({!live}) and may
    {!break_if_expired} it to take over — this is how a sharded sweep
    survives a SIGKILLed worker.

    Fault injection: {!acquire} is instrumented as site
    [lease-acquire] and the record publish of {!heartbeat} as
    [lease-renew] (keys: the lease basename), with the usual
    transient/sticky semantics of {!Fault}.  An injected acquire fault
    reads as a lost race; an injected heartbeat fault is a soft
    failure (the old heartbeat stands until it lapses).

    Breaking is advisory: between an expiry check and the unlink,
    another process may have broken and re-acquired the lease, so two
    holders can briefly coexist.  Layers above must tolerate duplicate
    work — the sweep shards do, since duplicate evaluations publish
    byte-identical parts. *)

type info = {
  owner : string;  (** The {!make_owner} token that holds the lease. *)
  pid : int;
  host : string;
}

val make_owner : unit -> string
(** A fresh owner token: host, pid and a monotonic nonce.  Use one
    token per logical worker. *)

val acquire : path:string -> owner:string -> bool
(** Try to create the lease file atomically ([O_EXCL]).  [false] when
    it already exists, when the directory is unusable, or under an
    injected [lease-acquire] fault — never raises. *)

val heartbeat : path:string -> Telemetry.hold -> bool
(** Re-read the lease and, while it names [hold.owner], publish this
    process's record with [hold] ({!Telemetry.flush}; the session runs
    in the lease's directory).  [true] while the owner holds the lease,
    even when the publish failed softly; [false] once the lease is gone
    or names another owner: the caller must abandon the guarded work. *)

val release : path:string -> owner:string -> unit
(** Remove the lease if this [owner] still holds it; otherwise a
    no-op.  Never raises. *)

val read : string -> info option
(** The lease body, or [None] when absent, torn, or corrupt. *)

val live : ttl:float -> string -> bool
(** Whether the lease at [path] exists with
    max(lease mtime, holder record mtime) + [ttl] > now.  A present
    but unreadable file (e.g. a racing {!acquire} mid-write) has only
    its own mtime as grace. *)

val break_if_expired : ttl:float -> string -> bool
(** Remove the lease iff it exists and is not {!live}; [true] when
    this call removed it.  Never raises. *)
