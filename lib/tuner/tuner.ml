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

(* A verdict reads only the virtual program's instruction structure
   and TC — never the weights (the only BC-dependent part of the code),
   the device or N.  The TC-free facts are memoized on the compile's
   weight-free digest: one analysis per code class, shared across
   processes by the class's [verdict] artifact.  The report binds TC,
   which only the race-witness search reads; it is memoized on digest
   plus TC, so [cache.verdict.*] and [verify.checked] count one report
   per code class and TC, shared by every BC and N point. *)
module Facts = Gat_util.Memo.Make (String)

module Verdicts = Gat_util.Memo.Make (struct
  type t = string * int

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let facts : Gat_analysis.Verify.facts Facts.t = Facts.create ()

let verdicts =
  Verdicts.create
    ~hits:(Gat_util.Metrics.counter "cache.verdict.hits")
    ~misses:(Gat_util.Metrics.counter "cache.verdict.misses")
    ()

let class_facts (c : Gat_compiler.Driver.compiled) =
  Facts.find_or_compute facts c.digest (fun () ->
      let key = Gat_compiler.Artifacts.verdict_key c.digest in
      match Gat_compiler.Artifacts.find_verdict ~key with
      | Some f -> f
      | None ->
          let f = Gat_analysis.Verify.analyze c.ptx in
          Gat_compiler.Artifacts.store_verdict ~key f;
          f)

let verdict (c : Gat_compiler.Driver.compiled) =
  let tc = c.params.Gat_compiler.Params.threads_per_block in
  Verdicts.find_or_compute verdicts (c.digest, tc) (fun () ->
      Gat_analysis.Verify.report ~threads_per_block:tc (class_facts c))

let eval_point kernel gpu ~n ~seed params =
  let rng = Gat_util.Rng.create (point_seed kernel gpu ~seed params) in
  match compile kernel gpu params with
  | Error _ -> None
  | Ok compiled ->
      (* Unsafe variants evaluate to None, exactly like invalid ones:
         no search strategy can ever rank a variant the verifier
         rejected, however fast the simulator says it would be. *)
      if Gat_analysis.Verify.safe (verdict compiled) then
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
}

(* The in-process tier shares the disk tier's content key: two kernels
   with one name are two sweeps. *)
module Sweeps = Gat_util.Memo.Make (String)

let sweeps : report Sweeps.t = Sweeps.create ()

let clear_cache () =
  Sweeps.clear sweeps;
  Facts.clear facts;
  Verdicts.clear verdicts;
  Gat_compiler.Codegen_cache.clear ()

(* The sweep core walks the space in fixed-size blocks: each block is
   compiled once (compile phase, one compile per parameter point) and
   then simulated at every requested size (simulate phase) before the
   block's compiled variants are dropped.  Blocking keeps the resident
   set to one block of compiled programs regardless of space or size
   count; exactly-once compilation per (kernel, gpu, params) is by
   construction, not a cache property.  Blocks are also the sweep's
   fault boundaries: after each one the supervised outcomes are folded
   into the accumulators and (a shard's range) flushed as the holder's
   heartbeat, so a crash or SIGINT costs it at most one block of work. *)
let default_block_size = 256

(* A point's identity at the [compile] and [simulate] fault sites;
   built only when the site has a rule ({!Gat_util.Fault.armed}). *)
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
let m_unsafe = Gat_util.Metrics.counter "sweep.unsafe"
let h_compile = Gat_util.Metrics.histogram "sweep.compile"
let h_simulate = Gat_util.Metrics.histogram "sweep.simulate"

let checkpoint ~done_points r =
  {
    Disk_cache.done_points;
    variants = r.variants;
    failures = r.failures;
    unsafe = r.unsafe;
  }

(* Evaluation order over [Space.points] is fixed, so the accumulated
   variant and failure lists depend only on (space, kernel, gpu, n,
   seed) — never on the job count, the block size, whether a shard
   was interrupted and resumed from a salvaged prefix, or how the
   space was partitioned into shard ranges.  Salvage and distributed
   merge correctness both ride entirely on that invariant.

   The core walks the half-open point range [first, first + range_len)
   of the space.  [init] restores an already-evaluated prefix of the
   range (its [done_points] is range-relative); [flush] is invoked
   after every completed block with the accumulated range-relative
   checkpoint — the hook under per-shard heartbeats.  The result is
   one report per size of [ns], in order. *)
let run_range ?jobs ?(retries = 1) ?max_failures
    ?(block = default_block_size) ?progress ?flush ?init ?interrupt_hint
    kernel gpu ~space ~first ~range_len ~ns ~seed =
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
  (match (init, acc) with
  | Some c, [ (_, variants_rev, failures_rev) ]
    when c.Disk_cache.done_points > 0 && c.Disk_cache.done_points <= total ->
      variants_rev := List.rev c.Disk_cache.variants;
      failures_rev := List.rev c.Disk_cache.failures;
      unsafe_rev := List.rev c.Disk_cache.unsafe;
      failed_global := List.length c.Disk_cache.failures;
      start := c.Disk_cache.done_points
  | _ -> ());
  (match progress with
  | Some f -> f ~done_:!start ~total ~failures:!failed_global
  | None -> ());
  let reports () =
    let unsafe = List.rev !unsafe_rev in
    List.map
      (fun (_, variants_rev, failures_rev) ->
        {
          variants = List.rev !variants_rev;
          failures = List.rev !failures_rev;
          unsafe;
        })
      acc
  in
  while !start < total do
    (* Cooperative SIGINT: stop between blocks, after the previous
       block's [flush]. *)
    if Gat_util.Cancel.requested () then
      Gat_util.Error.failf Interrupted ?hint:interrupt_hint
        "sweep interrupted at %d/%d points" !start total;
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
            if Gat_util.Fault.armed ~site:"compile" then
              Gat_util.Fault.inject ~site:"compile"
                ~key:(fault_key kernel gpu params);
            ( Gat_util.Rng.create (point_seed kernel gpu ~seed params),
              (* Verify right after compiling, while the block's
                 workers are already fanned out; the verdict cache
                 collapses the (BC, N) axes to one analysis each. *)
              Result.map
                (fun c -> (c, verdict c))
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
                    if Gat_util.Fault.armed ~site:"simulate" then
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
    Option.iter
      (fun f -> f (checkpoint ~done_points:!start (List.hd (reports ()))))
      flush
  done;
  reports ()

(* The sweep cache's one policy.  A degraded sweep is never persisted:
   it must not masquerade as the complete one in a later process.  No
   single-flight: sweeps are requested sequentially, never from pool
   workers. *)
let cached ~space kernel gpu ~ns ~seed compute =
  let key n = Disk_cache.key space kernel gpu ~n ~seed in
  let held n =
    Option.is_some (Sweeps.find sweeps (key n))
    ||
    match Disk_cache.find space kernel gpu ~n ~seed with
    | Some (variants, unsafe) ->
        ignore (Sweeps.add sweeps (key n) { variants; failures = []; unsafe });
        true
    | None -> false
  in
  (match List.filter (fun n -> not (held n)) ns with
  | [] -> ()
  | missing ->
      List.iter2
        (fun n r ->
          if r.failures = [] then
            Disk_cache.store space kernel gpu ~n ~seed r.variants r.unsafe;
          ignore (Sweeps.add sweeps (key n) r))
        missing (compute missing));
  List.map (fun n -> Option.get (Sweeps.find sweeps (key n))) ns

(* The unsharded sweep keeps its progress in memory only: a sharded
   sweep is the resumable one. *)
let interrupt_hint =
  "an unsharded sweep keeps no progress; run it with --shards K to make \
   it resumable"

let sweep_report ?(space = Space.paper) ?jobs ?retries ?max_failures ?block
    ?progress kernel gpu ~n ~seed =
  List.hd
  @@ cached ~space kernel gpu ~ns:[ n ] ~seed (fun ns ->
         run_range ?jobs ?retries ?max_failures ?block ?progress
           ~interrupt_hint kernel gpu ~space ~first:0
           ~range_len:(Space.cardinality space) ~ns ~seed)

(* The distributed-sweep entry point: one range of the space as the
   range-relative checkpoint a shard publishes as its [.part] file. *)
let sweep_range ?jobs ?retries ?max_failures ?block ?flush ?init
    ?interrupt_hint ~space ~first ~len kernel gpu ~n ~seed =
  checkpoint ~done_points:len
    (List.hd
       (run_range ?jobs ?retries ?max_failures ?block ?flush ?init
          ?interrupt_hint kernel gpu ~space ~first ~range_len:len ~ns:[ n ]
          ~seed))

let sweep ?space ?jobs kernel gpu ~n ~seed =
  (sweep_report ?space ?jobs kernel gpu ~n ~seed).variants

let sweep_multi ?(space = Space.paper) ?jobs kernel gpu ~ns ~seed =
  cached ~space kernel gpu ~ns ~seed (fun ns ->
      run_range ?jobs kernel gpu ~space ~first:0
        ~range_len:(Space.cardinality space) ~ns ~seed)
  |> List.map2 (fun n r -> (n, r.variants)) ns

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
