(** MD5-sealed atomic file entries — the shared envelope of every
    persistent cache file ([.sweep], [.art]) and of the sharded sweep's
    files (manifest, leases, [.part], [.telem] records).

    A sealed file is a line-oriented text payload closed by an ["end"]
    line and an [md5] line covering every byte before it.  {!unseal}
    verifies the digest, so any truncation or byte flip anywhere in the
    file fails verification and reads as a miss instead of wrong data.
    {!publish} writes a private temp file and renames it over the final
    name: readers racing a writer (or a SIGKILL between the syscalls)
    see the old entry or the new one, never a partial write. *)

val seal : Buffer.t -> unit
(** Append the ["end"]/[md5] trailer over the buffer's current
    contents. *)

val publish : path:string -> Buffer.t -> unit
(** Atomically write the buffer to [path] (directory created as
    needed).  Raises [Sys_error] on I/O failure, leaving no temp file
    behind — callers own their degradation policy. *)

val read_raw : string -> string
(** The file's bytes, unverified.  Raises [Sys_error]. *)

val unseal : string -> string option
(** The payload with the trailer stripped, or [None] if the trailer is
    absent or the digest does not match. *)

val read : string -> string option
(** {!read_raw} + {!unseal}; [None] also on I/O failure. *)
