(* Live sweep progress on stderr.

   On a TTY the line redraws in place (carriage return, padded to
   erase the previous render) at most every 100 ms; when stderr is not
   a TTY (CI logs, redirections) it degrades to a full line every few
   seconds plus one final line, so logs stay readable and greppable.
   All rendering is throttled by the monotonic clock and never touches
   stdout, which stays byte-identical across runs. *)

type t = {
  label : string;
  total : int;
  tty : bool;
  out : out_channel;
  start_ns : int64;
  mutable last_ns : int64;
  mutable last_width : int;
}

let tty_refresh_ns = 100_000_000L (* 100 ms *)
let line_refresh_ns = 2_000_000_000L (* 2 s *)

let create ?(out = stderr) ?tty ~label ~total () =
  let tty =
    match tty with
    | Some b -> b
    | None -> ( try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)
  in
  {
    label;
    total;
    tty;
    out;
    start_ns = Metrics.now_ns ();
    last_ns = 0L;
    last_width = 0;
  }

let pct ~done_ ~total =
  if total <= 0 then 100 else done_ * 100 / total

(* Pure so tests can cover the formatting without a clock or a TTY. *)
let render_line ?workers ?reclaimed ~label ~total ~done_ ~failures
    ~cache_hit_pct ~elapsed_s () =
  let rate = if elapsed_s > 0.0 then float_of_int done_ /. elapsed_s else 0.0 in
  let eta =
    if done_ > 0 && done_ < total && rate > 0.0 then
      Printf.sprintf "ETA %s" (Metrics.pp_duration (float_of_int (total - done_) /. rate))
    else "ETA --"
  in
  let cache =
    match cache_hit_pct with
    | Some p -> Printf.sprintf "  cache %d%%" p
    | None -> ""
  in
  (* Distributed-sweep fields, rendered only while relevant: external
     workers attached to the coordination directory, and leases
     reclaimed from dead ones. *)
  let workers =
    match workers with
    | Some w when w > 0 -> Printf.sprintf "  workers %d" w
    | _ -> ""
  in
  let reclaimed =
    match reclaimed with
    | Some r when r > 0 -> Printf.sprintf "  reclaimed %d" r
    | _ -> ""
  in
  Printf.sprintf "%s %d/%d %d%%  %.0f pts/s  %s%s%s%s  failed %d" label done_
    total
    (pct ~done_ ~total)
    rate eta cache workers reclaimed failures

let write t line =
  if t.tty then begin
    (* Pad with spaces to erase any longer previous render. *)
    let pad = max 0 (t.last_width - String.length line) in
    Printf.fprintf t.out "\r%s%s%!" line (String.make pad ' ');
    t.last_width <- String.length line
  end
  else Printf.fprintf t.out "%s\n%!" line

let elapsed_s t =
  Int64.to_float (Int64.sub (Metrics.now_ns ()) t.start_ns) /. 1e9

let line t ?workers ?reclaimed ~done_ ~failures ~cache_hit_pct () =
  render_line ?workers ?reclaimed ~label:t.label ~total:t.total ~done_
    ~failures ~cache_hit_pct ~elapsed_s:(elapsed_s t) ()

let update t ~done_ ~failures ?cache_hit_pct ?workers ?reclaimed () =
  let now = Metrics.now_ns () in
  let due = Int64.sub now t.last_ns in
  let refresh = if t.tty then tty_refresh_ns else line_refresh_ns in
  if due >= refresh then begin
    t.last_ns <- now;
    write t (line t ?workers ?reclaimed ~done_ ~failures ~cache_hit_pct ())
  end

let finish t ~done_ ~failures ?cache_hit_pct ?workers ?reclaimed () =
  write t (line t ?workers ?reclaimed ~done_ ~failures ~cache_hit_pct ());
  if t.tty then Printf.fprintf t.out "\n%!"
