(* Process-wide counters and duration histograms.

   The substrate is deliberately minimal: a counter is one atomic
   integer, an increment is one [fetch_and_add], and the registry
   mutex is touched only at registration (module initialization) and
   when taking a snapshot.  Hot paths bind their counters at module
   top level, so steady-state cost is an atomic add per event — cheap
   enough to leave on unconditionally, which is the point: the sweep
   engine's cache-hit rates, retry counts and failure totals are
   always available, not only when someone remembered to profile.

   Every duration is a log-bucketed histogram ({!Histogram.Log}) of
   wall-clock samples on the monotonic clock (bechamel's
   [clock_gettime(CLOCK_MONOTONIC)] stub, nanosecond resolution,
   allocation-free): its count and sum are what a timer would keep,
   its buckets give p50/p99, and it merges across a fleet bucket-wise.
   Counter values are deterministic for a deterministic run; durations
   are not, which is why the deterministic {!render_counters} dump and
   the full {!render} dump are separate entry points — golden tests
   cover the former. *)

let now_ns () = Monotonic_clock.now ()
let seconds ns = float_of_int ns *. 1e-9

type counter = { name : string; value : int Atomic.t }

let lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

type hist = Histogram.Log.t

let hists : (string, hist) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { name; value = Atomic.make 0 } in
          Hashtbl.replace counters name c;
          c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.value by)
let set c v = Atomic.set c.value v
let value c = Atomic.get c.value
let bump ?by name = incr ?by (counter name)

let histogram name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
          let h = Histogram.Log.create () in
          Hashtbl.replace hists name h;
          h)

let observe = Histogram.Log.record

let timed h f =
  let t0 = now_ns () in
  let elapsed () = Int64.to_int (Int64.sub (now_ns ()) t0) in
  match f () with
  | v ->
      let dt = elapsed () in
      observe h dt;
      (v, seconds dt)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      observe h (elapsed ());
      Printexc.raise_with_backtrace e bt

let observe_timed h f = fst (timed h f)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
      Hashtbl.iter (fun _ h -> Histogram.Log.reset h) hists)

let counters_snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.value) :: acc) counters [])
  |> List.sort compare

let histograms_snapshot () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun name h acc -> (name, h) :: acc) hists [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let timers_snapshot () =
  List.map
    (fun (name, h) -> (name, Histogram.Log.total h, seconds (Histogram.Log.sum_ns h)))
    (histograms_snapshot ())

let merge_histogram name other =
  Histogram.Log.merge_into ~into:(histogram name) other

(* ---- rendering ---- *)

(* One duration-formatting path for every CLI timing line. *)
let pp_duration s =
  if s >= 100.0 then Printf.sprintf "%.0f s" s
  else if s >= 1.0 then Printf.sprintf "%.1f s" s
  else if s >= 0.001 then Printf.sprintf "%.0f ms" (s *. 1e3)
  else Printf.sprintf "%.2f ms" (s *. 1e3)

let prometheus_name name =
  let mangled =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  "gat_" ^ mangled

let render_counters () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let p = prometheus_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" p p v))
    (counters_snapshot ());
  Buffer.contents b

(* One section per duration: its Prometheus summary lines, then, once
   it has samples, p50/p99/mean and the log-scale bars. *)
let render () =
  let b = Buffer.create 2048 in
  Buffer.add_string b (render_counters ());
  List.iter
    (fun (name, h) ->
      let n = Histogram.Log.total h and sum = Histogram.Log.sum_ns h in
      let p = prometheus_name name ^ "_seconds" in
      Printf.bprintf b "# TYPE %s summary\n%s_count %d\n%s_sum %.6f\n" p p n p
        (seconds sum);
      if n > 0 then begin
        let pp = Histogram.Log.pp_ns in
        Printf.bprintf b "# %s: p50 %s, p99 %s, mean %s\n" name
          (pp (Histogram.Log.percentile_ns h 0.5))
          (pp (Histogram.Log.percentile_ns h 0.99))
          (pp (sum / n));
        Buffer.add_string b (Histogram.Log.render h)
      end)
    (histograms_snapshot ());
  Buffer.contents b

let dump_requested () =
  match Sys.getenv_opt "GAT_STATS" with
  | None | Some ("" | "0") -> false
  | Some _ -> true
