(* Chaos tests: deterministic fault injection (GAT_FAULT) against the
   supervised sweep engine, structured abort and interrupt behaviour, cache degradation under injected I/O faults, and
   concurrent journal recording.

   Fault decisions are pure hashes of (seed, site, key, attempt), so
   every scenario here is exactly reproducible: the same spec fails the
   same variants every run, independent of worker count. *)

module Tuner = Gat_tuner.Tuner
module Disk_cache = Gat_tuner.Disk_cache
module Variant = Gat_tuner.Variant
module Space = Gat_tuner.Space
module Params = Gat_compiler.Params
module Fault = Gat_util.Fault
module Error = Gat_util.Error

(* Private scratch cache directory — never the user's real cache. *)
let scratch =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-test-chaos-%d" (Unix.getpid ()))
  in
  Unix.putenv "GAT_CACHE_DIR" d;
  d

let kernel = Gat_workloads.Workloads.atax
let gpu = Gat_arch.Gpu.k20

let space =
  {
    Space.tc = [ 64; 128; 256 ];
    bc = [ 24; 48 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

(* Every test drives the engine from a cold start: in-memory sweep
   cache dropped, fault injection off, cancellation cleared.  The disk
   cache is disabled by default so a clean run's stored entry cannot
   short-circuit a later faulty run of the same key. *)
let reset () =
  Tuner.clear_cache ();
  Fault.set_spec None;
  Gat_util.Cancel.reset ();
  Gat_util.Store.set_enabled Disk_cache.cache false;
  Gat_util.Store.reset_degraded Disk_cache.cache

let check_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_variant_eq (a : Variant.t) (b : Variant.t) =
  Alcotest.(check int) "params" 0 (Params.compare a.Variant.params b.Variant.params);
  check_bits "time_ms" a.Variant.time_ms b.Variant.time_ms;
  check_bits "occupancy" a.Variant.occupancy b.Variant.occupancy;
  Alcotest.(check int) "registers" a.Variant.registers b.Variant.registers

let check_report_eq (a : Tuner.report) (b : Tuner.report) =
  Alcotest.(check int) "variant count" (List.length a.Tuner.variants)
    (List.length b.Tuner.variants);
  List.iter2 check_variant_eq a.Tuner.variants b.Tuner.variants;
  Alcotest.(check int) "failure count" (List.length a.Tuner.failures)
    (List.length b.Tuner.failures);
  List.iter2
    (fun (x : Variant.failure) (y : Variant.failure) ->
      Alcotest.(check int) "failed params" 0
        (Params.compare x.Variant.failed_params y.Variant.failed_params);
      Alcotest.(check string) "message" x.Variant.message y.Variant.message;
      Alcotest.(check int) "attempts" x.Variant.attempts y.Variant.attempts)
    a.Tuner.failures b.Tuner.failures;
  Alcotest.(check int) "unsafe count" (List.length a.Tuner.unsafe)
    (List.length b.Tuner.unsafe);
  List.iter2
    (fun (x : Variant.unsafe) (y : Variant.unsafe) ->
      Alcotest.(check int) "unsafe params" 0
        (Params.compare x.Variant.unsafe_params y.Variant.unsafe_params);
      Alcotest.(check string) "reason" x.Variant.reason y.Variant.reason)
    a.Tuner.unsafe b.Tuner.unsafe

let clean_report () =
  reset ();
  let r = Tuner.sweep_report ~space ~jobs:2 kernel gpu ~n:64 ~seed:42 in
  Alcotest.(check (list string)) "clean run has no failures" []
    (List.map Variant.failure_summary r.Tuner.failures);
  r

(* ---- transient faults ---- *)

(* Transient decisions re-roll per attempt, so with enough retries
   every point recovers and the report is bit-identical to a fault-free
   sweep: supervision must never perturb the values it protects. *)
let test_transient_faults_recover () =
  let clean = clean_report () in
  reset ();
  Fault.set_spec (Some "simulate:0.25,compile:0.25,seed:5");
  let faulty =
    Tuner.sweep_report ~space ~jobs:2 ~retries:8 kernel gpu ~n:64 ~seed:42
  in
  (* Successful evaluations are bit-identical to the clean run; with
     eight re-rolls at p=0.25 every point recovers in practice, but the
     invariants below hold regardless of how the hashes land. *)
  Alcotest.(check int) "every point accounted for"
    (List.length clean.Tuner.variants)
    (List.length faulty.Tuner.variants + List.length faulty.Tuner.failures);
  let clean_by_params =
    List.map (fun (v : Variant.t) -> (v.Variant.params, v)) clean.Tuner.variants
  in
  List.iter
    (fun (v : Variant.t) ->
      match
        List.find_opt
          (fun (p, _) -> Params.compare p v.Variant.params = 0)
          clean_by_params
      with
      | None -> Alcotest.fail "variant absent from the clean run"
      | Some (_, c) -> check_variant_eq c v)
    faulty.Tuner.variants;
  (* Determinism: the same spec produces the same report. *)
  reset ();
  Fault.set_spec (Some "simulate:0.25,compile:0.25,seed:5");
  let again =
    Tuner.sweep_report ~space ~jobs:1 ~retries:8 kernel gpu ~n:64 ~seed:42
  in
  check_report_eq faulty again

(* ---- sticky faults ---- *)

let test_sticky_faults_recorded () =
  let clean = clean_report () in
  reset ();
  Fault.set_spec (Some "simulate:1:sticky");
  let faulty =
    Tuner.sweep_report ~space ~jobs:2 ~retries:2 kernel gpu ~n:64 ~seed:42
  in
  Alcotest.(check int) "no variant survives" 0 (List.length faulty.Tuner.variants);
  Alcotest.(check int) "every valid point failed"
    (List.length clean.Tuner.variants)
    (List.length faulty.Tuner.failures);
  List.iter
    (fun (f : Variant.failure) ->
      Alcotest.(check int) "all attempts used" 3 f.Variant.attempts;
      Alcotest.(check bool) "simulate stage named" true
        (String.length f.Variant.message >= 8
        && String.sub f.Variant.message 0 8 = "simulate"))
    faulty.Tuner.failures

let test_compile_faults_recorded () =
  reset ();
  Fault.set_spec (Some "compile:1:sticky");
  let faulty =
    Tuner.sweep_report ~space ~jobs:2 ~retries:1 kernel gpu ~n:64 ~seed:42
  in
  Alcotest.(check int) "no variant survives" 0 (List.length faulty.Tuner.variants);
  Alcotest.(check bool) "compile failures recorded" true
    (List.length faulty.Tuner.failures > 0);
  List.iter
    (fun (f : Variant.failure) ->
      Alcotest.(check bool) "compile stage named" true
        (String.length f.Variant.message >= 7
        && String.sub f.Variant.message 0 7 = "compile"))
    faulty.Tuner.failures

(* ---- failure budget ---- *)

let test_budget_aborts_with_tune_error () =
  reset ();
  Fault.set_spec (Some "simulate:1:sticky");
  match
    Tuner.sweep_report ~space ~jobs:2 ~retries:0 ~max_failures:2 kernel gpu
      ~n:64 ~seed:42
  with
  | _ -> Alcotest.fail "budget must abort the sweep"
  | exception Error.Error e ->
      Alcotest.(check bool) "Tune stage" true (e.Error.stage = Error.Tune);
      Alcotest.(check int) "exit code 5" 5 (Error.exit_code e.Error.stage)

(* ---- cooperative cancellation ---- *)

let test_cancellation_interrupts () =
  reset ();
  Gat_util.Cancel.request ();
  Fun.protect
    ~finally:(fun () -> Gat_util.Cancel.reset ())
    (fun () ->
      match Tuner.sweep_report ~space ~jobs:1 kernel gpu ~n:64 ~seed:42 with
      | _ -> Alcotest.fail "pre-requested cancellation must interrupt"
      | exception Error.Error e ->
          Alcotest.(check bool) "Interrupted stage" true
            (e.Error.stage = Error.Interrupted);
          Alcotest.(check int) "exit code 130" 130
            (Error.exit_code e.Error.stage);
          (* The unsharded sweep keeps no progress: the hint points at
             the resumable, sharded one. *)
          let names_shards h =
            let k = String.length "--shards" in
            List.exists
              (fun i -> String.sub h i k = "--shards")
              (List.init (max 0 (String.length h - k + 1)) Fun.id)
          in
          Alcotest.(check bool) "hint names --shards" true
            (Option.fold ~none:false ~some:names_shards e.Error.hint))

(* ---- injected cache I/O faults ---- *)

let test_cache_write_fault_degrades () =
  reset ();
  Gat_util.Store.set_enabled Disk_cache.cache true;
  ignore (Gat_util.Store.clear Disk_cache.cache);
  Fault.set_spec (Some "cache-write:1:sticky");
  (* The sweep itself must succeed; only persistence is lost. *)
  let r = Tuner.sweep_report ~space ~jobs:1 kernel gpu ~n:64 ~seed:303 in
  Alcotest.(check bool) "sweep unaffected" true
    (List.length r.Tuner.variants > 0);
  Alcotest.(check bool) "cache degraded" true (Gat_util.Store.degraded Disk_cache.cache);
  let entries, _ = Gat_util.Store.disk_usage Disk_cache.cache in
  Alcotest.(check int) "nothing persisted" 0 entries;
  Gat_util.Store.reset_degraded Disk_cache.cache;
  Gat_util.Store.set_enabled Disk_cache.cache false

let test_cache_read_fault_is_miss () =
  reset ();
  Gat_util.Store.set_enabled Disk_cache.cache true;
  ignore (Gat_util.Store.clear Disk_cache.cache);
  (* Store cleanly, then make every read fail: lookups must turn into
     misses, never exceptions. *)
  let r1 = Tuner.sweep_report ~space ~jobs:1 kernel gpu ~n:64 ~seed:404 in
  Fault.set_spec (Some "cache-read:1:sticky");
  Tuner.clear_cache ();
  let r2 = Tuner.sweep_report ~space ~jobs:1 kernel gpu ~n:64 ~seed:404 in
  check_report_eq r1 r2;
  Fault.set_spec None;
  ignore (Gat_util.Store.clear Disk_cache.cache);
  Gat_util.Store.set_enabled Disk_cache.cache false

(* A write fault in one store latches that store only: the sweep cache
   and the artifact store each keep their own latch. *)
let test_stores_degrade_independently () =
  let disk = Disk_cache.cache and art = Gat_compiler.Artifacts.cache in
  List.iter
    (fun (site, failing, healthy) ->
      reset ();
      Gat_util.Store.set_enabled disk true;
      ignore (Gat_util.Store.clear disk);
      ignore (Gat_util.Store.clear art);
      Gat_util.Store.reset_degraded art;
      Fault.set_spec (Some (site ^ ":1:sticky"));
      ignore (Tuner.sweep_report ~space ~jobs:1 kernel gpu ~n:64 ~seed:505);
      Fault.set_spec None;
      Alcotest.(check bool) (site ^ " latches its store") true
        (Gat_util.Store.degraded failing);
      Alcotest.(check bool) (site ^ " leaves the other store writing") false
        (Gat_util.Store.degraded healthy);
      let entries, _ = Gat_util.Store.disk_usage healthy in
      Alcotest.(check bool) (site ^ ": the other store persisted") true (entries > 0))
    [ ("cache-write", disk, art); ("artifact-write", art, disk) ];
  ignore (Gat_util.Store.clear disk);
  ignore (Gat_util.Store.clear art);
  Gat_util.Store.reset_degraded art;
  Gat_util.Store.reset_degraded disk;
  Gat_util.Store.set_enabled disk false

(* ---- GAT_FAULT spec validation ---- *)

let test_malformed_spec_rejected () =
  List.iter
    (fun spec ->
      match Fault.set_spec (Some spec) with
      | () -> Alcotest.failf "spec %S must be rejected" spec
      | exception Error.Error e ->
          Alcotest.(check bool) "Usage stage" true (e.Error.stage = Error.Usage))
    [ "compile"; "compile:nope"; "compile:2.0"; "compile:0.5:bogus"; "seed:x" ];
  Fault.set_spec None

(* ---- concurrent journal recording ---- *)

let test_journal_concurrent_recording () =
  let journal =
    Gat_tuner.Journal.create ~kernel:"atax" ~gpu:"k20" ~n:64 ~seed:42
      ~strategy:"chaos"
  in
  let objective (p : Params.t) =
    if p.Params.unroll mod 2 = 0 then None
    else Some (float_of_int p.Params.threads_per_block)
  in
  let recorded = Gat_tuner.Journal.recording journal objective in
  let inputs =
    Array.init 400 (fun i ->
        Params.make
          ~threads_per_block:(32 * (1 + (i mod 16)))
          ~block_count:24 ~unroll:(1 + (i mod 4)) ~l1_pref_kb:16 ~staging:1
          ~fast_math:false ())
  in
  let outputs = Gat_util.Pool.map ~jobs:8 recorded inputs in
  Alcotest.(check int) "every evaluation recorded" 400
    (Gat_tuner.Journal.length journal);
  (* Indexes are dense and unique even under concurrent appends. *)
  let entries = Gat_tuner.Journal.entries journal in
  let indexes = List.map (fun e -> e.Gat_tuner.Journal.index) entries in
  Alcotest.(check (list int)) "dense 1..400 indexes"
    (List.init 400 (fun i -> i + 1))
    (List.sort compare indexes);
  (* No recorded value was corrupted by the races. *)
  Array.iteri
    (fun i out ->
      let recorded_time =
        (List.nth entries
           (match
              List.find_index
                (fun (e : Gat_tuner.Journal.entry) ->
                  Params.compare e.Gat_tuner.Journal.params inputs.(i) = 0)
                entries
            with
           | Some k -> k
           | None -> Alcotest.fail "input missing from journal"))
          .Gat_tuner.Journal.time_ms
      in
      ignore recorded_time;
      match (out, objective inputs.(i)) with
      | None, None -> ()
      | Some a, Some b -> check_bits "objective value passed through" a b
      | _ -> Alcotest.fail "recording wrapper changed validity")
    outputs

let cleanup () =
  Fault.set_spec None;
  Gat_util.Cancel.reset ();
  Gat_util.Store.set_enabled Disk_cache.cache true;
  ignore (Gat_util.Store.clear Disk_cache.cache);
  Gat_util.Store.reset_degraded Disk_cache.cache;
  try if Sys.file_exists scratch then Sys.rmdir scratch with Sys_error _ -> ()

let () =
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "gat_chaos"
        [
          ( "faults",
            [
              Alcotest.test_case "transient faults recover" `Quick
                test_transient_faults_recover;
              Alcotest.test_case "sticky faults recorded" `Quick
                test_sticky_faults_recorded;
              Alcotest.test_case "compile faults recorded" `Quick
                test_compile_faults_recorded;
              Alcotest.test_case "budget aborts (Tune)" `Quick
                test_budget_aborts_with_tune_error;
              Alcotest.test_case "malformed spec rejected" `Quick
                test_malformed_spec_rejected;
            ] );
          ( "cancel",
            [
              Alcotest.test_case "cancellation interrupts" `Quick
                test_cancellation_interrupts;
            ] );
          ( "cache-io",
            [
              Alcotest.test_case "write fault degrades" `Quick
                test_cache_write_fault_degrades;
              Alcotest.test_case "read fault is a miss" `Quick
                test_cache_read_fault_is_miss;
              Alcotest.test_case "stores degrade independently" `Quick
                test_stores_degrade_independently;
            ] );
          ( "journal",
            [
              Alcotest.test_case "concurrent recording" `Quick
                test_journal_concurrent_recording;
            ] );
        ])
