(* One persistent cache: a directory of sealed entries with its own
   switch, degrade latch, counters and upkeep.  See store.mli. *)

type t = {
  name : string;
  dir : unit -> string;
  suffixes : string list;
  enabled : bool Atomic.t;
  degraded : bool Atomic.t;
  warned : bool Atomic.t;
  hits : Metrics.counter;
  misses : Metrics.counter;
  stores : Metrics.counter;
  degraded_writes : Metrics.counter;
  bytes_read : Metrics.counter;
  bytes_written : Metrics.counter;
  read_site : string;
  write_site : string;
  read_span : string;
  write_span : string;
  h_read : Metrics.hist;
  h_write : Metrics.hist;
}

let create ~name ~metrics ~site ~dir ~suffixes =
  let c n = Metrics.counter (metrics ^ "." ^ n) in
  {
    name;
    dir;
    suffixes;
    enabled = Atomic.make true;
    degraded = Atomic.make false;
    warned = Atomic.make false;
    hits = c "hits";
    misses = c "misses";
    stores = c "stores";
    degraded_writes = c "degraded_writes";
    bytes_read = c "bytes_read";
    bytes_written = c "bytes_written";
    read_site = site ^ "-read";
    write_site = site ^ "-write";
    read_span = site ^ ".read";
    write_span = site ^ ".write";
    h_read = Metrics.histogram (site ^ ".read");
    h_write = Metrics.histogram (site ^ ".write");
  }

let dir t = t.dir ()
let path t file = Filename.concat (t.dir ()) file

(* ---- switch and degrade latch ---- *)

let enabled t = Atomic.get t.enabled
let set_enabled t b = Atomic.set t.enabled b
let degraded t = Atomic.get t.degraded

let reset_degraded t =
  Atomic.set t.degraded false;
  Atomic.set t.warned false

(* A cache that cannot be written (read-only directory, ENOSPC,
   injected fault) must never take the run down with it: the first
   failure warns once, the latch skips every later write, and reads
   keep working. *)
let degrade t msg =
  Metrics.incr t.degraded_writes;
  Atomic.set t.degraded true;
  if Atomic.compare_and_set t.warned false true then
    Printf.eprintf "gat: warning: %s unavailable (%s); continuing uncached\n%!"
      t.name msg

(* ---- counters ---- *)

type stats = { hits : int; misses : int; stores : int }

let stats (t : t) =
  {
    hits = Metrics.value t.hits;
    misses = Metrics.value t.misses;
    stores = Metrics.value t.stores;
  }

(* ---- payload reader ----

   The warm path parses megabytes of entries, so the reader scans the
   payload as one string with an index cursor instead of splitting
   lines into token lists, and floats take an exact hex fast path. *)

exception Bad

let bad () = raise Bad

type cursor = { s : string; mutable pos : int; mutable stop : int }

let line_end cur =
  match String.index_from_opt cur.s cur.pos '\n' with
  | Some nl -> nl
  | None -> bad ()

let start cur = cur.stop <- line_end cur

let skip_spaces cur =
  while cur.pos < cur.stop && String.unsafe_get cur.s cur.pos = ' ' do
    cur.pos <- cur.pos + 1
  done

let token cur =
  skip_spaces cur;
  if cur.pos >= cur.stop then bad ();
  let t0 = cur.pos in
  while cur.pos < cur.stop && String.unsafe_get cur.s cur.pos <> ' ' do
    cur.pos <- cur.pos + 1
  done;
  t0

let word cur =
  let t0 = token cur in
  String.sub cur.s t0 (cur.pos - t0)

let keyword cur w =
  let t0 = token cur in
  let n = String.length w in
  if cur.pos - t0 <> n then bad ();
  for i = 0 to n - 1 do
    if String.unsafe_get cur.s (t0 + i) <> String.unsafe_get w i then bad ()
  done

(* Up to 19 digits: nanoseconds since the epoch (about 1.8e18) need
   all of them.  Only a 19th digit can pass [max_int], so only it pays
   the overflow check. *)
let int cur =
  let t0 = token cur in
  let neg = String.unsafe_get cur.s t0 = '-' in
  let i0 = if neg then t0 + 1 else t0 in
  let n = cur.pos - i0 in
  if n = 0 || n > 19 then bad ();
  let v = ref 0 in
  for i = i0 to cur.pos - 1 do
    let c = Char.code (String.unsafe_get cur.s i) - Char.code '0' in
    if c < 0 || c > 9 then bad ();
    if n = 19 && i = cur.pos - 1 && !v > (max_int - c) / 10 then bad ();
    v := (!v * 10) + c
  done;
  if neg then - !v else !v

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> -1

(* Exact parse of the shape [%h] emits — [-]0xH[.H*]p[+-]D — without
   the substring allocation and [strtod] call of [float_of_string].
   The mantissa is kept integral (at most 53 bits, or we bail out) and
   rescaled with [ldexp], both exact, so the result is bit-identical.
   Returns [nan] on any shape mismatch; the caller falls back to
   [float_of_string] then, which also covers the literal [nan] and
   [infinity] spellings. *)
let parse_hex_float s t0 n =
  let stop = t0 + n in
  let i = ref t0 in
  let neg = !i < stop && String.unsafe_get s !i = '-' in
  if neg then incr i;
  if
    !i + 1 >= stop
    || String.unsafe_get s !i <> '0'
    || String.unsafe_get s (!i + 1) <> 'x'
  then Float.nan
  else begin
    i := !i + 2;
    let mant = ref 0 in
    let digits = ref 0 in
    let frac = ref 0 in
    let ok = ref true in
    let in_frac = ref false in
    let continue_ = ref true in
    while !continue_ && !i < stop do
      let c = String.unsafe_get s !i in
      if c = 'p' then continue_ := false
      else if c = '.' then
        if !in_frac then begin
          ok := false;
          continue_ := false
        end
        else begin
          in_frac := true;
          incr i
        end
      else begin
        let d = hex_digit c in
        if d < 0 then begin
          ok := false;
          continue_ := false
        end
        else begin
          mant := (!mant * 16) + d;
          incr digits;
          if !in_frac then incr frac;
          incr i
        end
      end
    done;
    (* 13 hex digits past a leading 0/1 fill the 53-bit mantissa; more
       would round in the integer accumulator, so defer to strtod. *)
    if
      (not !ok) || !digits = 0 || !digits > 14 || !mant >= 0x20000000000000
      || !i >= stop
      || String.unsafe_get s !i <> 'p'
    then Float.nan
    else begin
      incr i;
      let eneg =
        match if !i < stop then String.unsafe_get s !i else ' ' with
        | '-' ->
            incr i;
            true
        | '+' ->
            incr i;
            false
        | _ -> false
      in
      let e = ref 0 in
      let edigits = ref 0 in
      while !i < stop && !edigits <= 5 do
        let c = String.unsafe_get s !i in
        if c >= '0' && c <= '9' then begin
          e := (!e * 10) + (Char.code c - Char.code '0');
          incr edigits;
          incr i
        end
        else begin
          edigits := 99;
          i := stop + 1
        end
      done;
      if !i <> stop || !edigits = 0 || !edigits > 5 then Float.nan
      else begin
        let e = if eneg then - !e else !e in
        let v = Float.ldexp (Float.of_int !mant) (e - (4 * !frac)) in
        if neg then -.v else v
      end
    end
  end

let float cur =
  let t0 = token cur in
  let n = cur.pos - t0 in
  let v = parse_hex_float cur.s t0 n in
  if Float.is_nan v then
    match float_of_string_opt (String.sub cur.s t0 n) with
    | Some f -> f
    | None -> bad ()
  else v

let rest cur =
  if cur.pos < cur.stop && String.unsafe_get cur.s cur.pos = ' ' then
    cur.pos <- cur.pos + 1;
  let r = String.sub cur.s cur.pos (cur.stop - cur.pos) in
  cur.pos <- cur.stop + 1;
  r

let end_line cur =
  skip_spaces cur;
  if cur.pos <> cur.stop then bad ();
  cur.pos <- cur.stop + 1

let tag cur =
  start cur;
  word cur

let text cur tag =
  start cur;
  keyword cur tag;
  rest cur

let fields cur read =
  let rec go acc =
    skip_spaces cur;
    if cur.pos < cur.stop then go (read cur :: acc)
    else (
      end_line cur;
      List.rev acc)
  in
  go [ read cur ]

let raw cur n =
  if n < 0 || n > String.length cur.s - cur.pos then bad ();
  let r = String.sub cur.s cur.pos n in
  cur.pos <- cur.pos + n;
  r

let counted cur tag =
  start cur;
  keyword cur tag;
  let n = int cur in
  end_line cur;
  if n < 0 then bad ();
  n

(* ---- payload writer ----

   No [Printf]: through the format interpreter, emitting a 5,000-line
   sweep entry cost more than parsing it back.  Integers print digit by
   digit as [%d] does, floats through the primitive behind [%h]. *)

(* Digits of [n <= 0], most significant first; working on the
   non-positive side keeps [min_int] exact. *)
let rec add_nonpos_digits buf n =
  if n <= -10 then add_nonpos_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_decimal buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos_digits buf n
  end
  else add_nonpos_digits buf (-n)

let add_int buf n =
  Buffer.add_char buf ' ';
  add_decimal buf n

external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

(* [%h]: no precision limit (a negative one), a sign only when
   negative. *)
let add_float buf f =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (hexstring_of_float f (-6) '-')

let add_line buf words ints =
  Buffer.add_string buf (String.concat " " words);
  List.iter (add_int buf) ints;
  Buffer.add_char buf '\n'

let add_text buf s =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (String.map (function '\n' | '\r' -> ' ' | c -> c) s);
  Buffer.add_char buf '\n'

(* ---- entries ---- *)

let parse ~header s p =
  let pos = String.length header in
  let cur = { s; pos; stop = pos } in
  match if String.starts_with ~prefix:header s then p cur else bad () with
  | v when cur.pos = String.length s -> Some v
  | _ | exception _ -> None

let load t ~header path p =
  let file = Filename.basename path in
  Trace.span t.read_span ~args:[ ("file", Trace.S file) ] @@ fun () ->
  Metrics.observe_timed t.h_read @@ fun () ->
  Fault.inject ~site:t.read_site ~key:file;
  let raw = Sealed_file.read_raw path in
  Metrics.incr ~by:(String.length raw) t.bytes_read;
  Option.bind (Sealed_file.unseal raw) (fun s -> parse ~header s p)

let read t ~header path p =
  if not (Sys.file_exists path) then None
  else try load t ~header path p with _ -> None

let find t ~header path parse =
  if not (enabled t) then None
  else
    let v = read t ~header path parse in
    Metrics.incr (if Option.is_some v then t.hits else t.misses);
    v

(* The span and histogram cover the whole store — building and sealing
   the entry too — so a traced ledger charges all of it to the store. *)
let write t ~header path emit =
  let file = Filename.basename path in
  Trace.span t.write_span ~args:[ ("file", Trace.S file) ] @@ fun () ->
  Metrics.observe_timed t.h_write @@ fun () ->
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  emit buf;
  Sealed_file.seal buf;
  Fault.inject ~site:t.write_site ~key:file;
  Sealed_file.publish ~path buf;
  Metrics.incr ~by:(Buffer.length buf) t.bytes_written

let store t ~header path emit =
  if enabled t && not (degraded t) then
    match write t ~header path emit with
    | () -> Metrics.incr t.stores
    | exception (Sys_error e | Fault.Injected e) -> degrade t e

(* ---- upkeep ---- *)

let files t =
  let d = t.dir () in
  match Sys.readdir d with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             List.exists (Filename.check_suffix n) (".tmp" :: t.suffixes))
      |> List.sort String.compare
      |> List.map (Filename.concat d)

let disk_usage t =
  List.fold_left
    (fun (count, bytes) p ->
      match Unix.stat p with
      | st -> (count + 1, bytes + st.Unix.st_size)
      | exception Unix.Unix_error _ -> (count, bytes))
    (0, 0) (files t)

let clear t =
  List.fold_left
    (fun removed p ->
      match Sys.remove p with () -> removed + 1 | exception Sys_error _ -> removed)
    0 (files t)
