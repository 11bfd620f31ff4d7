let override = Atomic.make None

(* Pool observability.  Outcome counters (maps, ok, failed, recovered,
   retries) are deterministic for a deterministic workload; the
   scheduler counters (steals, steal_fails, splits) and the busy/idle
   timers depend on runtime interleaving and are documented as such —
   they describe how the work moved, never what it computed. *)
let m_maps = Metrics.counter "pool.maps"
let m_ok = Metrics.counter "pool.jobs.ok"
let m_failed = Metrics.counter "pool.jobs.failed"
let m_recovered = Metrics.counter "pool.jobs.recovered"
let m_retries = Metrics.counter "pool.retries"
let m_steals = Metrics.counter "pool.steals"
let m_steal_fails = Metrics.counter "pool.steal_fails"
let m_splits = Metrics.counter "pool.splits"
let t_busy = Metrics.timer "pool.worker.busy"
let t_idle = Metrics.timer "pool.worker.idle"

type sched_stats = { steals : int; steal_fails : int; splits : int }

let scheduler_stats () =
  {
    steals = Metrics.value m_steals;
    steal_fails = Metrics.value m_steal_fails;
    splits = Metrics.value m_splits;
  }

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

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace ()
      in
      Mutex.unlock m;
      Printexc.raise_with_backtrace e bt

(* ---- index ranges ----

   A unit of schedulable work is a half-open index range [lo, hi)
   packed into one immutable int, so a deque cell is a single atomic
   word and range hand-off needs no allocation.  31 bits per bound
   caps a parallel map at 2^31 - 1 elements; larger inputs (far beyond
   any in-memory sweep) run sequentially. *)

let range_bits = 31
let range_mask = (1 lsl range_bits) - 1
let pack lo hi = (lo lsl range_bits) lor hi
let range_lo r = r lsr range_bits
let range_hi r = r land range_mask

(* ---- Chase-Lev deque of ranges ----

   One per worker.  The owner pushes and pops at the bottom without a
   CAS except on the last element; thieves steal from the top with a
   CAS on the monotonic [top] counter (no ABA).  Cells are atomic so
   every access is well-defined under the OCaml memory model — the
   textbook algorithm's acquire/release reasoning carries over to
   seq-cst atomics unchanged.

   Capacity is fixed: splitting a popped range in half pushes at most
   one entry per halving, so a deque holds O(log n) ranges of
   geometrically decreasing size.  If a push ever finds the deque full
   the caller simply runs the range inline — graceful degradation, no
   growth path. *)

module Deque = struct
  let capacity = 64
  let mask = capacity - 1

  type t = {
    top : int Atomic.t;  (* next index to steal; only ever increments *)
    bottom : int Atomic.t;  (* next free slot for the owner *)
    cells : int Atomic.t array;
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      cells = Array.init capacity (fun _ -> Atomic.make 0);
    }

  (* Owner only. *)
  let push d v =
    let b = Atomic.get d.bottom in
    let t = Atomic.get d.top in
    if b - t >= capacity then false
    else begin
      Atomic.set d.cells.(b land mask) v;
      Atomic.set d.bottom (b + 1);
      true
    end

  (* Owner only: take the most recently pushed range (LIFO keeps the
     owner on the small, cache-warm end; thieves meet it at the old,
     large end). *)
  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      Atomic.set d.bottom t;
      None
    end
    else begin
      let v = Atomic.get d.cells.(b land mask) in
      if b > t then Some v
      else begin
        (* Single element left: race the thieves for it. *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then Some v else None
      end
    end

  (* Any thief. *)
  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then None
    else
      let v = Atomic.get d.cells.(t land mask) in
      if Atomic.compare_and_set d.top t (t + 1) then Some v else None
end

(* ---- worker plumbing ---- *)

(* Run one range: timed into the caller's busy accumulator and, when
   tracing, recorded as one span.  Ranges are coarse while the pool is
   balanced, so per-range spans stay cheap. *)
let run_range ~busy ~lo ~len body =
  let t0 = Metrics.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      busy := Int64.add !busy (Int64.sub (Metrics.now_ns ()) t0))
    (fun () ->
      if Trace.on () then
        Trace.span
          ~args:[ ("lo", Trace.I lo); ("len", Trace.I len) ]
          "pool.range" body
      else body ())

(* Account a worker's lifetime: busy is what its ranges measured, idle
   is the remainder (ramp-up, steal hunting, end-of-map drain). *)
let with_worker_accounting work =
  let t0 = Metrics.now_ns () in
  let busy = ref 0L in
  Fun.protect
    ~finally:(fun () ->
      let life = Int64.sub (Metrics.now_ns ()) t0 in
      Metrics.timer_add t_busy (Int64.to_int !busy);
      Metrics.timer_add t_idle
        (Int64.to_int (Int64.max 0L (Int64.sub life !busy))))
    (fun () -> work busy)

(* Seeds the per-map victim shuffle: deterministic for a given map
   ordinal so two identical runs visit victims in the same order (the
   actual steal outcomes still depend on interleaving). *)
let map_ordinal = Atomic.make 0

(* The work-stealing worker loop.

   Each worker owns one deque seeded with a contiguous slice of the
   input.  It pops from its own bottom; a range wider than the current
   grain is split in half, the far half pushed back (stealable), the
   near half kept — so the deque always exposes the largest remaining
   ranges at its top, and a single steal takes roughly half the
   victim's remaining indices.  The grain adapts: coarse
   ([n / (4 jobs)]) while every worker has local work, collapsing to a
   single element as soon as any worker is hungry, so a skewed tail is
   carved fine enough to share.  Workers with an empty deque hunt in a
   randomized victim order until the map has no unfinished index
   ([remaining] = 0) or the map is halting. *)
let ws_worker ~deques ~remaining ~hungry ~grain ~halt ~exec ~seed ~busy w =
  let j = Array.length deques in
  let d = deques.(w) in
  let rng = Rng.create (Hashtbl.hash (seed, w, j)) in
  let order = Array.init j Fun.id in
  let rec handle lo hi =
    let len = hi - lo in
    let g = if Atomic.get hungry > 0 then 1 else grain in
    let mid = lo + (len / 2) in
    if len > g && Deque.push d (pack mid hi) then begin
      Metrics.incr m_splits;
      handle lo mid
    end
    else begin
      run_range ~busy ~lo ~len (fun () -> exec lo hi);
      ignore (Atomic.fetch_and_add remaining (-len))
    end
  in
  let steal_once () =
    Rng.shuffle rng order;
    let found = ref None in
    Array.iter
      (fun v ->
        if !found = None && v <> w then
          match Deque.steal deques.(v) with
          | Some r ->
              Metrics.incr m_steals;
              if Trace.on () then
                Trace.instant "pool.steal"
                  ~args:
                    [
                      ("victim", Trace.I v);
                      ("lo", Trace.I (range_lo r));
                      ("len", Trace.I (range_hi r - range_lo r));
                    ];
              found := Some r
          | None -> ())
      order;
    !found
  in
  let hunt () =
    ignore (Atomic.fetch_and_add hungry 1);
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add hungry (-1)))
      (fun () ->
        let rec go fails =
          if halt () || Atomic.get remaining <= 0 then None
          else
            match steal_once () with
            | Some r -> Some r
            | None ->
                Metrics.incr m_steal_fails;
                (* Back off after repeated dry scans: on an
                   oversubscribed host a spinning hunter competes for
                   the very core the busy worker needs to produce
                   stealable work. *)
                if fails >= 2 then Unix.sleepf 50e-6
                else Domain.cpu_relax ();
                go (fails + 1)
        in
        go 0)
  in
  let rec loop () =
    if not (halt ()) then
      match Deque.pop d with
      | Some r ->
          handle (range_lo r) (range_hi r);
          loop ()
      | None -> (
          match hunt () with
          | Some r ->
              handle (range_lo r) (range_hi r);
              loop ()
          | None -> ())
  in
  loop ()

(* ---- the unified supervised core loop ----

   Both [map] and [map_result] run their workers through here; they
   differ only in the [exec] closure (write plain results / record
   supervised outcomes) and the [halt] predicate (nothing / the
   failure budget).  A worker whose body raises parks the exception in
   [failure], which halts every other worker; the first exception is
   re-raised in the caller after all domains have joined. *)
let run_parallel ~jobs:j ~n ~grain_hint ~halt ~exec () =
  Metrics.incr m_maps;
  let failure = Atomic.make None in
  let halt () = halt () || Atomic.get failure <> None in
  let deques = Array.init j (fun _ -> Deque.create ()) in
  (* Contiguous initial partition: one slice per worker. *)
  let per = n / j and rem = n mod j in
  let lo = ref 0 in
  Array.iteri
    (fun w d ->
      let len = per + if w < rem then 1 else 0 in
      if len > 0 then ignore (Deque.push d (pack !lo (!lo + len)));
      lo := !lo + len)
    deques;
  let remaining = Atomic.make n in
  let hungry = Atomic.make 0 in
  let grain =
    match grain_hint with Some c -> max 1 c | None -> max 1 (n / (j * 4))
  in
  let seed = Atomic.fetch_and_add map_ordinal 1 in
  let worker w () =
    with_worker_accounting @@ fun busy ->
    try ws_worker ~deques ~remaining ~hungry ~grain ~halt ~exec ~seed ~busy w
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)))
  in
  let domains = List.init (j - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---- unboxed result buffer ----

   Results land in a plain ['b array] created lazily from the first
   computed value (there is no zero element for an arbitrary ['b]), so
   a map costs one allocation for the whole buffer instead of one
   [Some] per element plus a full unwrap pass.  Distinct indices are
   written by distinct workers; [Domain.join] publishes the writes. *)

type 'b buffer = { cell : 'b array option Atomic.t; size : int }

let buffer n = { cell = Atomic.make None; size = n }

let buffer_store b i v =
  let arr =
    match Atomic.get b.cell with
    | Some arr -> arr
    | None -> (
        let arr = Array.make b.size v in
        if Atomic.compare_and_set b.cell None (Some arr) then arr
        else
          match Atomic.get b.cell with
          | Some arr -> arr
          | None -> assert false)
  in
  arr.(i) <- v;
  arr

let buffer_contents b =
  match Atomic.get b.cell with Some arr -> arr | None -> [||]

(* ---- map ---- *)

(* The worker count a map of [n] elements actually runs with: never
   more workers than elements, and one (the sequential path) for
   inputs too long to pack into ranges. *)
let effective_jobs requested n =
  let j = match requested with Some j -> max 1 j | None -> jobs () in
  if n > range_mask then 1 else min j n

let map ?jobs:requested ?chunk f input =
  let n = Array.length input in
  let j = effective_jobs requested n in
  if j <= 1 then Array.map f input
  else begin
    let buf = buffer n in
    let exec lo hi =
      let arr = buffer_store buf lo (f input.(lo)) in
      for i = lo + 1 to hi - 1 do
        arr.(i) <- f input.(i)
      done
    in
    run_parallel ~jobs:j ~n ~grain_hint:chunk
      ~halt:(fun () -> false)
      ~exec ();
    buffer_contents buf
  end

let map_list ?jobs ?chunk f l =
  Array.to_list (map ?jobs ?chunk f (Array.of_list l))

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

let map_result ?jobs:requested ?chunk ?(retries = 1) ?max_failures f input =
  if retries < 0 then invalid_arg "Pool.map_result: retries must be >= 0";
  let n = Array.length input in
  let j = effective_jobs requested n in
  let failed = Atomic.make 0 in
  (* Set once the failure count passes the budget; workers drain and
     the caller raises. *)
  let over : exn_info option Atomic.t = Atomic.make None in
  let eval x =
    let r = eval_supervised ~retries f x in
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
  let buf = buffer n in
  if j <= 1 then begin
    let i = ref 0 in
    while !i < n && Atomic.get over = None do
      ignore (buffer_store buf !i (eval input.(!i)));
      incr i
    done
  end
  else begin
    let exec lo hi =
      let i = ref lo in
      while !i < hi && Atomic.get over = None do
        ignore (buffer_store buf !i (eval input.(!i)));
        incr i
      done
    in
    run_parallel ~jobs:j ~n ~grain_hint:chunk
      ~halt:(fun () -> Atomic.get over <> None)
      ~exec ()
  end;
  match Atomic.get over with
  | Some last ->
      raise
        (Budget_exceeded
           {
             failed = Atomic.get failed;
             budget = Option.get max_failures;
             last;
           })
  | None -> buffer_contents buf
