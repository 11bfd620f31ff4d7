(* Process-wide counters and timers.

   The substrate is deliberately minimal: a counter is one atomic
   integer, an increment is one [fetch_and_add], and the registry
   mutex is touched only at registration (module initialization) and
   when taking a snapshot.  Hot paths bind their counters at module
   top level, so steady-state cost is an atomic add per event — cheap
   enough to leave on unconditionally, which is the point: the sweep
   engine's cache-hit rates, retry counts and failure totals are
   always available, not only when someone remembered to profile.

   Timers record wall-clock durations on the monotonic clock
   (bechamel's [clock_gettime(CLOCK_MONOTONIC)] stub, nanosecond
   resolution, allocation-free).  Counter values are deterministic for
   a deterministic run; timer sums are not, which is why the
   deterministic {!render_counters} dump and the full {!render} dump
   are separate entry points — golden tests cover the former. *)

let now_ns () = Monotonic_clock.now ()

type counter = { name : string; value : int Atomic.t }

type timer = {
  tname : string;
  events : int Atomic.t;
  total_ns : int Atomic.t;
}

let lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

type hist = { hname : string; h : Histogram.Log.t }

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

let timer tname =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt timers tname with
      | Some t -> t
      | None ->
          let t = { tname; events = Atomic.make 0; total_ns = Atomic.make 0 } in
          Hashtbl.replace timers tname t;
          t)

let timer_add t ns =
  ignore (Atomic.fetch_and_add t.events 1);
  ignore (Atomic.fetch_and_add t.total_ns ns)

let timed t f =
  let t0 = now_ns () in
  match f () with
  | v ->
      let dt = Int64.to_int (Int64.sub (now_ns ()) t0) in
      timer_add t dt;
      (v, float_of_int dt *. 1e-9)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      timer_add t (Int64.to_int (Int64.sub (now_ns ()) t0));
      Printexc.raise_with_backtrace e bt

let time t f = fst (timed t f)

let histogram hname =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt hists hname with
      | Some h -> h
      | None ->
          let h = { hname; h = Histogram.Log.create () } in
          Hashtbl.replace hists hname h;
          h)

let observe h ns = Histogram.Log.record h.h ns

let observe_timed h f =
  let t0 = now_ns () in
  match f () with
  | v ->
      observe h (Int64.to_int (Int64.sub (now_ns ()) t0));
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      observe h (Int64.to_int (Int64.sub (now_ns ()) t0));
      Printexc.raise_with_backtrace e bt

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
      Hashtbl.iter
        (fun _ t ->
          Atomic.set t.events 0;
          Atomic.set t.total_ns 0)
        timers;
      Hashtbl.iter (fun _ h -> Histogram.Log.reset h.h) hists)

let counters_snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.value) :: acc) counters [])
  |> List.sort compare

let timers_snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun name t acc ->
          (name, Atomic.get t.events, float_of_int (Atomic.get t.total_ns) *. 1e-9)
          :: acc)
        timers [])
  |> List.sort compare

let histograms_snapshot () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun name h acc -> (name, h.h) :: acc) hists [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge_histogram name other =
  let h = histogram name in
  Histogram.Log.merge_into ~into:h.h other

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

let render_histograms () =
  let b = Buffer.create 2048 in
  List.iter
    (fun (name, h) ->
      let n = Histogram.Log.total h in
      if n > 0 then begin
        Buffer.add_string b
          (Printf.sprintf "# %s: %d samples, p50 %s, p99 %s, mean %s\n" name n
             (Histogram.Log.pp_ns (Histogram.Log.percentile_ns h 0.5))
             (Histogram.Log.pp_ns (Histogram.Log.percentile_ns h 0.99))
             (Histogram.Log.pp_ns (Histogram.Log.sum_ns h / n)));
        Buffer.add_string b (Histogram.Log.render h)
      end)
    (histograms_snapshot ());
  Buffer.contents b

let render () =
  let b = Buffer.create 2048 in
  Buffer.add_string b (render_counters ());
  List.iter
    (fun (name, count, seconds) ->
      let p = prometheus_name name ^ "_seconds" in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s summary\n%s_count %d\n%s_sum %.6f\n" p p
           count p seconds))
    (timers_snapshot ());
  Buffer.add_string b (render_histograms ());
  Buffer.contents b

let dump_requested () =
  match Sys.getenv_opt "GAT_STATS" with
  | None | Some ("" | "0") -> false
  | Some _ -> true
