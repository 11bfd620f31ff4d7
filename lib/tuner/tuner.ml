let point_seed kernel gpu ~seed params =
  (* Each parameter point gets its own trial stream derived from the
     master seed, so evaluation order — sequential, parallel, or
     memoized — cannot change results. *)
  Hashtbl.hash
    ( seed,
      kernel.Gat_ir.Kernel.name,
      gpu.Gat_arch.Gpu.name,
      Gat_compiler.Params.to_string params )

(* Every point is compiled exactly once by construction — per block in
   [run_range], through [Search.memoized_objective] in [autotune] — so
   no compiled variant is retained past its use.  [cache.compile.misses]
   still counts each compile because the benchmark's traced catalog
   (bench/e2e/catalog.ml) reads it as the compile-cache lookup count;
   without it that row's hit ratio would be 0/0. *)
let m_compiles = Gat_util.Metrics.counter "cache.compile.misses"

let compile kernel gpu params =
  Gat_util.Metrics.incr m_compiles;
  Gat_compiler.Driver.compile kernel gpu params

let eval_point kernel gpu ~n ~seed params =
  let rng = Gat_util.Rng.create (point_seed kernel gpu ~seed params) in
  match compile kernel gpu params with
  | Error _ -> None
  | Ok compiled ->
      (* Unsafe variants evaluate to None, exactly like invalid ones:
         no search strategy can ever rank a variant the verifier
         rejected, however fast the simulator says it would be. *)
      if Gat_analysis.Verify.safe (Verdict_cache.get compiled) then
        Some (Measure.evaluate_compiled compiled ~n ~rng)
      else None

let objective kernel gpu ~n ~seed =
  Search.memoized_objective (fun params ->
      Option.map
        (fun v -> v.Variant.time_ms)
        (eval_point kernel gpu ~n ~seed params))

type report = {
  variants : Variant.t list;
  failures : Variant.failure list;
  unsafe : Variant.unsafe list;
  restored_points : int;
}

let sweep_lock = Mutex.create ()
let sweep_cache : (string, report) Hashtbl.t = Hashtbl.create 16

let clear_cache () =
  Gat_util.Pool.with_lock sweep_lock (fun () -> Hashtbl.reset sweep_cache);
  Verdict_cache.clear ();
  Gat_compiler.Codegen_cache.clear ()

let sweep_key space kernel gpu ~n ~seed =
  Printf.sprintf "%s/%s/%d/%d/%s" kernel.Gat_ir.Kernel.name
    gpu.Gat_arch.Gpu.name n seed (Space.to_string space)

let find_sweep key =
  Gat_util.Pool.with_lock sweep_lock (fun () ->
      Hashtbl.find_opt sweep_cache key)

let store_sweep key report =
  Gat_util.Pool.with_lock sweep_lock (fun () ->
      match Hashtbl.find_opt sweep_cache key with
      | Some existing -> existing
      | None ->
          Hashtbl.replace sweep_cache key report;
          report)

(* The sweep core walks the space in fixed-size blocks: each block is
   compiled once (compile phase, one compile per parameter point) and
   then simulated at every requested size (simulate phase) before the
   block's compiled variants are dropped.  Blocking keeps the resident
   set to one block of compiled programs regardless of space or size
   count; exactly-once compilation per (kernel, gpu, params) is by
   construction, not a cache property.  Blocks are also the sweep's
   fault boundaries: after each one the supervised outcomes are folded
   into the accumulators and (single-size runs) flushed to an atomic
   checkpoint, so a crash or SIGINT costs at most one block of work. *)
let default_block_size = 256

let fault_key kernel gpu params =
  Printf.sprintf "%s/%s/%s" kernel.Gat_ir.Kernel.name gpu.Gat_arch.Gpu.name
    (Gat_compiler.Params.to_string params)

let budget_exceeded ~failed ~budget (last : Gat_util.Pool.exn_info) =
  Gat_util.Error.failf Tune
    ~hint:
      "raise --max-failures to tolerate more, or inspect the failure \
       messages in the sweep summary"
    "sweep aborted: more than %d variant failures (%d seen; last: %s)"
    budget failed
    (Printexc.to_string last.Gat_util.Pool.exn)

(* Sweep observability: deterministic counters (point/block/failure
   counts, not timings) plus per-block compile/simulate spans when
   tracing is enabled. *)
let m_points = Gat_util.Metrics.counter "sweep.points"
let m_blocks = Gat_util.Metrics.counter "sweep.blocks"
let m_fail_compile = Gat_util.Metrics.counter "sweep.failures.compile"
let m_fail_simulate = Gat_util.Metrics.counter "sweep.failures.simulate"
let m_restored = Gat_util.Metrics.counter "sweep.restored_points"
let m_unsafe = Gat_util.Metrics.counter "sweep.unsafe"
let h_compile = Gat_util.Metrics.histogram "sweep.compile"
let h_simulate = Gat_util.Metrics.histogram "sweep.simulate"

(* Evaluation order over [Space.points] is fixed, so the accumulated
   variant and failure lists depend only on (space, kernel, gpu, n,
   seed) — never on the job count, the block size, whether the run
   was interrupted and resumed from a checkpointed prefix, or how the
   space was partitioned into shard ranges.  Resume and distributed
   merge correctness both ride entirely on that invariant.

   The core walks the half-open point range [first, first + range_len)
   of the space.  [init] restores an already-evaluated prefix of the
   range (its [done_points] is range-relative); [flush] is invoked
   after every completed block with the accumulated range-relative
   checkpoint — the hook under both local checkpointing and per-shard
   heartbeats. *)
let run_range ?jobs ?(retries = 1) ?max_failures
    ?(block = default_block_size) ?progress ?flush ?init
    ?(interrupt_note = "") kernel gpu ~space ~first ~range_len ~ns ~seed =
  let all_points = Array.of_list (Space.points space) in
  if first < 0 || range_len < 0 || first + range_len > Array.length all_points
  then invalid_arg "Tuner.run_range: range outside the space";
  let points = Array.sub all_points first range_len in
  let total = range_len in
  let block_size = max 1 block in
  if (Option.is_some flush || Option.is_some init) && List.length ns <> 1 then
    invalid_arg "Tuner.run_range: checkpointing supports exactly one size";
  (* Per size: reversed variants and failures.  Compile failures are
     size-independent and recorded against every size; simulate
     failures only against theirs. *)
  let acc = List.map (fun n -> (n, ref [], ref [])) ns in
  (* Unsafe verdicts, like compile failures, are size-independent:
     recorded once per point for the whole sweep. *)
  let unsafe_rev = ref [] in
  let failed_global = ref 0 in
  let budget_left () =
    Option.map (fun b -> max 0 (b - !failed_global)) max_failures
  in
  let start = ref 0 in
  let restored = ref 0 in
  (match init with
  | Some c
    when c.Disk_cache.done_points > 0 && c.Disk_cache.done_points <= total
    -> (
      match acc with
      | [ (_, variants_rev, failures_rev) ] ->
          variants_rev := List.rev c.Disk_cache.variants;
          failures_rev := List.rev c.Disk_cache.failures;
          unsafe_rev := List.rev c.Disk_cache.unsafe;
          failed_global := List.length c.Disk_cache.failures;
          start := c.Disk_cache.done_points;
          restored := c.Disk_cache.done_points
      | _ -> ())
  | _ -> ());
  (match progress with
  | Some f -> f ~done_:!start ~total ~failures:!failed_global
  | None -> ());
  while !start < total do
    (* Cooperative SIGINT: the previous block's checkpoint is already
       on disk, so stopping here loses nothing. *)
    if Gat_util.Cancel.requested () then
      Gat_util.Error.failf Interrupted
        "sweep interrupted at %d/%d points%s" !start total interrupt_note;
    let len = min block_size (total - !start) in
    let blk = Array.sub points !start len in
    let block_args =
      [ ("start", Gat_util.Trace.I !start); ("len", Gat_util.Trace.I len) ]
    in
    (* Compile phase, parallel and supervised over the block. *)
    let compiled =
      try
        Gat_util.Trace.span "sweep.compile" ~args:block_args @@ fun () ->
        Gat_util.Metrics.observe_timed h_compile @@ fun () ->
        Gat_util.Pool.map_result ?jobs ~retries ?max_failures:(budget_left ())
          (fun params ->
            Gat_util.Fault.inject ~site:"compile"
              ~key:(fault_key kernel gpu params);
            ( Gat_util.Rng.create (point_seed kernel gpu ~seed params),
              (* Verify right after compiling, while the block's
                 workers are already fanned out; the verdict cache
                 collapses the (BC, N) axes to one analysis each. *)
              Result.map
                (fun c -> (c, Verdict_cache.get c))
                (compile kernel gpu params) ))
          blk
      with Gat_util.Pool.Budget_exceeded { failed; last; _ } ->
        budget_exceeded
          ~failed:(!failed_global + failed)
          ~budget:(Option.get max_failures) last
    in
    Array.iteri
      (fun i entry ->
        match entry with
        | Ok (_, Ok (_, verdict))
          when not (Gat_analysis.Verify.safe verdict) ->
            Gat_util.Metrics.incr m_unsafe;
            unsafe_rev :=
              {
                Variant.unsafe_params = blk.(i);
                reason = Gat_analysis.Verify.summary verdict;
              }
              :: !unsafe_rev
        | Ok _ -> ()
        | Error (info : Gat_util.Pool.exn_info) ->
            incr failed_global;
            Gat_util.Metrics.incr m_fail_compile;
            let f =
              {
                Variant.failed_params = blk.(i);
                message = "compile: " ^ Printexc.to_string info.exn;
                attempts = info.attempts;
              }
            in
            List.iter (fun (_, _, failures_rev) -> failures_rev := f :: !failures_rev) acc)
      compiled;
    (* Simulate phase: every size reuses the block's compiles.  Each
       size re-copies the per-point RNG, so trial streams are the same
       at every size, exactly as a from-scratch evaluation draws them. *)
    List.iter
      (fun (n, variants_rev, failures_rev) ->
        let evaluated =
          try
            Gat_util.Trace.span "sweep.simulate"
              ~args:(("n", Gat_util.Trace.I n) :: block_args)
            @@ fun () ->
            Gat_util.Metrics.observe_timed h_simulate @@ fun () ->
            Gat_util.Pool.map_result ?jobs ~retries
              ?max_failures:(budget_left ())
              (fun i ->
                match compiled.(i) with
                | Error _ -> None (* already recorded as a compile failure *)
                | Ok (_, Error _) -> None (* invalid variant *)
                | Ok (_, Ok (_, verdict))
                  when not (Gat_analysis.Verify.safe verdict) ->
                    None (* unsafe variant: never simulated or ranked *)
                | Ok (rng, Ok (c, _)) ->
                    Gat_util.Fault.inject ~site:"simulate"
                      ~key:
                        (Printf.sprintf "%s/n=%d"
                           (fault_key kernel gpu blk.(i))
                           n);
                    Some
                      (Measure.evaluate_compiled c ~n
                         ~rng:(Gat_util.Rng.copy rng)))
              (Array.init len Fun.id)
          with Gat_util.Pool.Budget_exceeded { failed; last; _ } ->
            budget_exceeded
              ~failed:(!failed_global + failed)
              ~budget:(Option.get max_failures) last
        in
        Array.iteri
          (fun i outcome ->
            match outcome with
            | Ok (Some v) -> variants_rev := v :: !variants_rev
            | Ok None -> ()
            | Error (info : Gat_util.Pool.exn_info) ->
                incr failed_global;
                Gat_util.Metrics.incr m_fail_simulate;
                failures_rev :=
                  {
                    Variant.failed_params = blk.(i);
                    message =
                      Printf.sprintf "simulate(n=%d): %s" n
                        (Printexc.to_string info.exn);
                    attempts = info.attempts;
                  }
                  :: !failures_rev)
          evaluated)
      acc;
    start := !start + len;
    Gat_util.Metrics.incr m_blocks;
    Gat_util.Metrics.incr ~by:len m_points;
    (match progress with
    | Some f -> f ~done_:!start ~total ~failures:!failed_global
    | None -> ());
    (match flush with
    | Some f -> (
        match acc with
        | [ (_, variants_rev, failures_rev) ] ->
            f
              {
                Disk_cache.done_points = !start;
                variants = List.rev !variants_rev;
                failures = List.rev !failures_rev;
                unsafe = List.rev !unsafe_rev;
              }
        | _ -> ())
    | None -> ())
  done;
  ( List.map
      (fun (n, variants_rev, failures_rev) ->
        (n, (List.rev !variants_rev, List.rev !failures_rev)))
      acc,
    List.rev !unsafe_rev,
    !restored )

(* A sweep missing from the in-process cache may still be on disk from
   an earlier run; only sweeps absent from both are computed, and every
   computed sweep is persisted for the next process.  Sweeps that
   recorded failures are deliberately NOT persisted: a degraded result
   must never masquerade as the complete sweep in a later process. *)
let restore_from_disk space kernel gpu ~n ~seed key =
  match Disk_cache.find space kernel gpu ~n ~seed with
  | Some (variants, unsafe) ->
      Some
        (store_sweep key { variants; failures = []; unsafe; restored_points = 0 })
  | None -> None

let finish_sweep space kernel gpu ~n ~seed key (variants, failures) ~unsafe
    ~restored =
  let r =
    store_sweep key { variants; failures; unsafe; restored_points = restored }
  in
  if r.failures = [] then
    Disk_cache.store space kernel gpu ~n ~seed r.variants r.unsafe;
  r

let sweep_report ?(space = Space.paper) ?jobs ?retries ?max_failures
    ?(checkpoint = false) ?(resume = false) ?block ?progress kernel gpu ~n
    ~seed =
  let key = sweep_key space kernel gpu ~n ~seed in
  match find_sweep key with
  | Some r -> r
  | None -> (
      match restore_from_disk space kernel gpu ~n ~seed key with
      | Some r -> r
      | None -> (
          let total = Space.cardinality space in
          let init =
            if resume then Disk_cache.checkpoint_find space kernel gpu ~n ~seed
            else None
          in
          let restored =
            match init with
            | Some c when c.Disk_cache.done_points > 0
                          && c.Disk_cache.done_points <= total ->
                c.Disk_cache.done_points
            | _ -> 0
          in
          Gat_util.Metrics.incr ~by:restored m_restored;
          let flush =
            if checkpoint then
              Some (Disk_cache.checkpoint_store space kernel gpu ~n ~seed)
            else None
          in
          let interrupt_note =
            if checkpoint then "; checkpoint saved — re-run with --resume"
            else ""
          in
          match
            run_range ?jobs ?retries ?max_failures ?block ?progress ?flush
              ?init ~interrupt_note kernel gpu ~space ~first:0 ~range_len:total
              ~ns:[ n ] ~seed
          with
          | [ (_, outcome) ], unsafe, _ ->
              if checkpoint then
                Disk_cache.checkpoint_clear space kernel gpu ~n ~seed;
              finish_sweep space kernel gpu ~n ~seed key outcome ~unsafe
                ~restored
          | _ -> assert false))

(* The distributed-sweep entry point: evaluate one contiguous range of
   the space and return it as a range-relative checkpoint — exactly
   the payload a shard worker publishes as its [.part] file.  [flush]
   fires after every block (the shard layer's checkpoint-and-heartbeat
   hook); [init] salvages a previously flushed prefix of the same
   range. *)
let sweep_range ?jobs ?retries ?max_failures ?block ?flush ?init
    ?interrupt_note ~space ~first ~len kernel gpu ~n ~seed =
  match
    run_range ?jobs ?retries ?max_failures ?block ?flush ?init ?interrupt_note
      kernel gpu ~space ~first ~range_len:len ~ns:[ n ] ~seed
  with
  | [ (_, (variants, failures)) ], unsafe, _ ->
      { Disk_cache.done_points = len; variants; failures; unsafe }
  | _ -> assert false

let sweep ?space ?jobs kernel gpu ~n ~seed =
  (sweep_report ?space ?jobs kernel gpu ~n ~seed).variants

let sweep_multi ?(space = Space.paper) ?jobs kernel gpu ~ns ~seed =
  let missing =
    List.filter
      (fun n ->
        let key = sweep_key space kernel gpu ~n ~seed in
        Option.is_none (find_sweep key)
        && Option.is_none (restore_from_disk space kernel gpu ~n ~seed key))
      ns
  in
  (match missing with
  | [] -> ()
  | _ ->
      let results, unsafe, _ =
        run_range ?jobs kernel gpu ~space ~first:0
          ~range_len:(Space.cardinality space) ~ns:missing ~seed
      in
      List.iter
        (fun (n, outcome) ->
          ignore
            (finish_sweep space kernel gpu ~n ~seed
               (sweep_key space kernel gpu ~n ~seed)
               outcome ~unsafe ~restored:0))
        results);
  List.map (fun n -> (n, sweep ~space ?jobs kernel gpu ~n ~seed)) ns

type strategy =
  | Exhaustive
  | Random of int
  | Annealing of int
  | Genetic of int * int
  | Nelder_mead of int
  | Static
  | Static_rules

let strategy_name = function
  | Exhaustive -> "exhaustive"
  | Random b -> Printf.sprintf "random(%d)" b
  | Annealing i -> Printf.sprintf "annealing(%d)" i
  | Genetic (g, p) -> Printf.sprintf "genetic(%dx%d)" g p
  | Nelder_mead r -> Printf.sprintf "nelder-mead(%d)" r
  | Static -> "static"
  | Static_rules -> "static+rules"

let autotune ?(space = Space.paper) ?journal ~strategy kernel gpu ~n ~seed =
  let obj = objective kernel gpu ~n ~seed in
  let obj =
    match journal with Some j -> Journal.recording j obj | None -> obj
  in
  let rng = Gat_util.Rng.create (seed + 17) in
  match strategy with
  | Exhaustive -> Strategies.exhaustive obj space
  | Random budget -> Strategies.random ~budget rng obj space
  | Annealing iterations -> Strategies.annealing ~iterations rng obj space
  | Genetic (generations, population) ->
      Strategies.genetic ~generations ~population rng obj space
  | Nelder_mead restarts -> Strategies.nelder_mead ~restarts rng obj space
  | Static -> Static_search.run kernel gpu ~rule_based:false obj space
  | Static_rules -> Static_search.run kernel gpu ~rule_based:true obj space
