let override = Atomic.make None

(* Pool observability.  Outcome counters (maps, ok, failed, recovered,
   retries) are deterministic for a deterministic workload; the
   busy/idle histograms depend on how the workers interleave — they
   describe how the work moved, never what it computed. *)
let m_maps = Metrics.counter "pool.maps"
let m_ok = Metrics.counter "pool.jobs.ok"
let m_failed = Metrics.counter "pool.jobs.failed"
let m_recovered = Metrics.counter "pool.jobs.recovered"
let m_retries = Metrics.counter "pool.retries"
let h_busy = Metrics.histogram "pool.worker.busy"
let h_idle = Metrics.histogram "pool.worker.idle"

let set_default_jobs j =
  (match j with
  | Some j when j < 1 -> invalid_arg "Pool.set_default_jobs: jobs must be >= 1"
  | _ -> ());
  Atomic.set override j

let env_jobs () =
  match Sys.getenv_opt "GAT_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None)

let jobs () =
  match Atomic.get override with
  | Some j -> j
  | None -> (
      match env_jobs () with
      | Some j -> j
      | None -> Domain.recommended_domain_count ())

(* ---- the worker loop ----

   Every map runs here, at every job count.  [j = min jobs n] workers —
   the caller plus [j - 1] spawned domains — claim indices one at a
   time from a shared atomic cursor and write element [i] to slot [i].
   Each index is claimed exactly once, so results, retry counts and
   fault-injection streams depend on the index alone, never on which
   worker ran it.  A worker never holds more than the element it is
   running, so a skewed tail is shared element by element; a claim is
   one fetch-and-add, noise beside the tens of microseconds a sweep
   element costs (DESIGN.md 5.6).

   A worker stops at its next claim once [halted ()] holds or an
   element has raised; the first exception is re-raised in the caller
   after every domain has joined, which also publishes the results.
   When tracing a map of two or more workers, each worker's loop is one
   [pool.range] span; a one-worker map records none, so its elements'
   time stays with the caller's layer in the trace ledger.  The loop's
   duration is the worker's busy time; the rest of the map's wall time
   (spawn, join, waiting on the last element) is its idle time. *)
let run ?jobs:requested ~halted n body =
  let requested = match requested with Some j -> max 1 j | None -> jobs () in
  let j = max 1 (min requested n) in
  Metrics.incr m_maps;
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && (not (halted ())) && Atomic.get failure = None then begin
      results.(i) <- Some (body i);
      loop ()
    end
  in
  let busy = Array.make j 0 in
  let t0 = Metrics.now_ns () in
  let worker w () =
    let start = Metrics.now_ns () in
    (try
       if j > 1 && Trace.on () then
         Trace.span ~args:[ ("worker", Trace.I w) ] "pool.range" loop
       else loop ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set failure None (Some (e, bt))));
    busy.(w) <- Int64.to_int (Int64.sub (Metrics.now_ns ()) start)
  in
  let domains = List.init (j - 1) (fun w -> Domain.spawn (worker (w + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  let wall = Int64.to_int (Int64.sub (Metrics.now_ns ()) t0) in
  Array.iter
    (fun b ->
      Metrics.observe h_busy b;
      Metrics.observe h_idle (max 0 (wall - b)))
    busy;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> results

let map ?jobs f input =
  run ?jobs ~halted:(fun () -> false) (Array.length input) (fun i -> f input.(i))
  |> Array.map Option.get

(* ---- supervised map ---- *)

type exn_info = { exn : exn; backtrace : string; attempts : int }

exception
  Budget_exceeded of { failed : int; budget : int; last : exn_info }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { failed; budget; last } ->
        Some
          (Printf.sprintf
             "Gat_util.Pool.Budget_exceeded: %d failures (budget %d), last: %s"
             failed budget
             (Printexc.to_string last.exn))
    | _ -> None)

(* One element, with bounded in-place retry: [retries] extra attempts
   after the first.  The recorded [attempts] is the total number of
   tries made. *)
let eval_supervised ~retries f x =
  let rec go attempt =
    match f x with
    | v ->
        (* Successes that needed a retry used to be indistinguishable
           from first-try successes; count them so flaky-but-recovered
           variants are visible ([pool.jobs.recovered]). *)
        if attempt > 1 then begin
          Metrics.incr m_recovered;
          Metrics.incr ~by:(attempt - 1) m_retries
        end;
        Metrics.incr m_ok;
        Ok v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if attempt <= retries then go (attempt + 1)
        else begin
          Metrics.incr m_failed;
          Metrics.incr ~by:(attempt - 1) m_retries;
          Error
            {
              exn = e;
              backtrace = Printexc.raw_backtrace_to_string bt;
              attempts = attempt;
            }
        end
  in
  go 1

let map_result ?jobs ?(retries = 1) ?max_failures f input =
  if retries < 0 then invalid_arg "Pool.map_result: retries must be >= 0";
  let failed = Atomic.make 0 in
  (* Set once the failure count passes the budget; workers stop at
     their next claim and the caller raises. *)
  let over : exn_info option Atomic.t = Atomic.make None in
  let eval i =
    let r = eval_supervised ~retries f input.(i) in
    (match r with
    | Ok _ -> ()
    | Error info -> (
        let c = 1 + Atomic.fetch_and_add failed 1 in
        match max_failures with
        | Some budget when c > budget ->
            ignore (Atomic.compare_and_set over None (Some info))
        | _ -> ()));
    r
  in
  let results =
    run ?jobs ~halted:(fun () -> Atomic.get over <> None) (Array.length input) eval
  in
  match Atomic.get over with
  | Some last ->
      raise
        (Budget_exceeded
           {
             failed = Atomic.get failed;
             budget = Option.get max_failures;
             last;
           })
  | None -> Array.map Option.get results
