(* MD5-sealed atomic file entries.

   The format every persistent cache entry in the system shares: a
   line-oriented text payload closed by

     end\nmd5 <hex of every byte before this line>\n

   so that truncations and byte flips — including inside a hex-float
   literal, where the damage would otherwise still parse — fail
   verification, and the caller treats the entry as a miss, never as
   wrong data.  Publication is write-temp-then-rename in the target
   directory, so concurrent readers (and a SIGKILL between the two
   syscalls) see either the old entry or the new one, never a partial
   write. *)

(* The digest covers the payload plus the "end" line — the exact
   region the original Disk_cache trailer digested, so files it wrote
   before this module existed still verify. *)
let seal buf =
  Buffer.add_string buf "end\n";
  Buffer.add_string buf
    ("md5 " ^ Digest.to_hex (Digest.string (Buffer.contents buf)) ^ "\n")

(* "end\n" + "md5 " + 32 hex + "\n" *)
let trailer_len = 4 + 4 + 32 + 1

let unseal s =
  let n = String.length s in
  if n < trailer_len then None
  else
    let payload_len = n - trailer_len in
    if
      String.equal (String.sub s payload_len 8) "end\nmd5 "
      && s.[n - 1] = '\n'
      && String.equal
           (String.sub s (payload_len + 8) 32)
           (Digest.to_hex (Digest.substring s 0 (payload_len + 4)))
    then Some (String.sub s 0 payload_len)
    else None

let publish ~path buf =
  let d = Filename.dirname path in
  Cache_dir.ensure d;
  let tmp = Filename.temp_file ~temp_dir:d "gat" ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc buf);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let read_raw path = In_channel.with_open_bin path In_channel.input_all

let read path =
  match read_raw path with
  | s -> unseal s
  | exception Sys_error _ -> None
