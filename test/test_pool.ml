(* Tests for Gat_util.Pool: the Domain-based worker pool behind the
   parallel sweep engine.  Everything here must hold for any job count
   — order preservation is what makes the parallel sweeps
   deterministic. *)

open Gat_util

let job_counts = [ 1; 2; 3; 4; 8 ]

let test_map_empty () =
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        "empty in, empty out" [||]
        (Pool.map ~jobs (fun x -> x * 2) [||]))
    job_counts

let test_map_single () =
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        "singleton" [| 14 |]
        (Pool.map ~jobs (fun x -> x * 2) [| 7 |]))
    job_counts

let test_map_matches_sequential () =
  let input = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expected
        (Pool.map ~jobs f input))
    job_counts

let test_jobs_exceed_length () =
  Alcotest.(check (array int))
    "more workers than elements" [| 2; 4; 6 |]
    (Pool.map ~jobs:64 (fun x -> x * 2) [| 1; 2; 3 |])

let test_jobs_one_on_caller () =
  (* One worker spawns nothing: the same loop runs on the calling
     domain, visiting the indices in order. *)
  let self = Domain.self () in
  let visited = ref [] in
  let f x =
    Alcotest.(check bool) "runs on the caller" true (Domain.self () = self);
    visited := x :: !visited;
    (3 * x) + 1
  in
  let input = Array.init 50 (fun i -> i - 25) in
  Alcotest.(check (array int))
    "jobs=1 is Array.map"
    (Array.map (fun x -> (3 * x) + 1) input)
    (Pool.map ~jobs:1 f input);
  Alcotest.(check (list int)) "in index order" (Array.to_list input)
    (List.rev !visited)

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker failure surfaces (jobs=%d)" jobs)
        (Failure "boom")
        (fun () ->
          ignore
            (Pool.map ~jobs
               (fun i -> if i = 17 then failwith "boom" else i)
               (Array.init 100 (fun i -> i)))))
    [ 1; 4 ]

let test_env_and_override () =
  Unix.putenv "GAT_JOBS" "3";
  Alcotest.(check int) "GAT_JOBS read" 3 (Pool.jobs ());
  Unix.putenv "GAT_JOBS" "bogus";
  Alcotest.(check bool) "garbage falls back to >= 1" true (Pool.jobs () >= 1);
  Unix.putenv "GAT_JOBS" "7";
  Pool.set_default_jobs (Some 2);
  Alcotest.(check int) "override beats env" 2 (Pool.jobs ());
  Pool.set_default_jobs None;
  Alcotest.(check int) "back to env" 7 (Pool.jobs ());
  Unix.putenv "GAT_JOBS" "";
  Alcotest.(check bool) "empty env falls back" true (Pool.jobs () >= 1);
  Alcotest.check_raises "override must be >= 1"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1") (fun () ->
      Pool.set_default_jobs (Some 0))

(* ---- supervised map ---- *)

let result_array =
  let pp_result fmt = function
    | Ok x -> Format.fprintf fmt "Ok %d" x
    | Error (e : Pool.exn_info) ->
        Format.fprintf fmt "Error (%s, %d attempts)" (Printexc.to_string e.Pool.exn)
          e.Pool.attempts
  in
  let eq_result a b =
    match (a, b) with
    | Ok x, Ok y -> x = y
    | Error (a : Pool.exn_info), Error b ->
        a.Pool.exn = b.Pool.exn && a.Pool.attempts = b.Pool.attempts
    | _ -> false
  in
  Alcotest.array (Alcotest.testable pp_result eq_result)

let test_map_result_all_ok () =
  let input = Array.init 200 (fun i -> i) in
  let f x = (x * 3) + 1 in
  let expected = Array.map (fun x -> Ok (f x)) input in
  List.iter
    (fun jobs ->
      Alcotest.check result_array
        (Printf.sprintf "jobs=%d all Ok, in order" jobs)
        expected
        (Pool.map_result ~jobs f input))
    job_counts

let test_map_result_records_failures () =
  let f x = if x mod 10 = 3 then failwith "boom" else x in
  List.iter
    (fun jobs ->
      let out = Pool.map_result ~jobs ~retries:0 f (Array.init 100 (fun i -> i)) in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "ok index" true (i mod 10 <> 3 && v = i)
          | Error e ->
              Alcotest.(check bool) "failed index" true (i mod 10 = 3);
              Alcotest.(check bool) "exception kept" true
                (e.Pool.exn = Failure "boom");
              Alcotest.(check int) "one attempt, no retry" 1 e.Pool.attempts)
        out;
      Alcotest.(check int) "exactly ten failures" 10
        (Array.fold_left
           (fun acc r -> if Result.is_error r then acc + 1 else acc)
           0 out))
    [ 1; 4 ]

let test_map_result_retry_recovers () =
  (* Fails on every odd-numbered attempt per element: with one retry,
     every element eventually succeeds. *)
  let tries = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let flaky x =
    let a =
      Mutex.protect lock (fun () ->
          let a = 1 + Option.value ~default:0 (Hashtbl.find_opt tries x) in
          Hashtbl.replace tries x a;
          a)
    in
    if a = 1 then failwith "transient" else x * 2
  in
  let out = Pool.map_result ~jobs:4 ~retries:1 flaky (Array.init 50 (fun i -> i)) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "recovered value" (i * 2) v
      | Error _ -> Alcotest.failf "element %d did not recover" i)
    out

let test_map_result_attempts_counted () =
  let out =
    Pool.map_result ~jobs:1 ~retries:3 (fun _ -> failwith "always") [| 0 |]
  in
  match out.(0) with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e -> Alcotest.(check int) "1 + 3 retries" 4 e.Pool.attempts

let test_map_result_budget () =
  let f x = if x < 20 then failwith "early" else x in
  (* Budget generous enough: all failures recorded, no exception. *)
  let out =
    Pool.map_result ~jobs:4 ~retries:0 ~max_failures:20 f
      (Array.init 100 (fun i -> i))
  in
  Alcotest.(check int) "twenty failures recorded" 20
    (Array.fold_left (fun acc r -> if Result.is_error r then acc + 1 else acc) 0 out);
  (* Budget of zero: the first failure crosses it. *)
  List.iter
    (fun jobs ->
      match
        Pool.map_result ~jobs ~retries:0 ~max_failures:0 f
          (Array.init 100 (fun i -> i))
      with
      | _ -> Alcotest.fail "budget must abort"
      | exception Pool.Budget_exceeded { failed; budget; last } ->
          Alcotest.(check bool) "at least one failure" true (failed >= 1);
          Alcotest.(check int) "budget echoed" 0 budget;
          Alcotest.(check bool) "last failure kept" true
            (last.Pool.exn = Failure "early"))
    [ 1; 4 ]

let test_map_result_budget_early_stop () =
  (* Sequential with budget 0: evaluation stops at the first failure
     rather than visiting all elements. *)
  let visited = ref 0 in
  (try
     ignore
       (Pool.map_result ~jobs:1 ~retries:0 ~max_failures:0
          (fun x ->
            incr visited;
            if x = 5 then failwith "stop" else x)
          (Array.init 1000 (fun i -> i)))
   with Pool.Budget_exceeded _ -> ());
  Alcotest.(check bool) "stopped early" true (!visited < 1000)

let test_map_result_bad_retries () =
  Alcotest.check_raises "negative retries rejected"
    (Invalid_argument "Pool.map_result: retries must be >= 0") (fun () ->
      ignore (Pool.map_result ~retries:(-1) (fun x -> x) [| 1 |]))

(* ---- scheduler properties ---- *)

(* Deterministic busy work so element costs can be skewed without
   sleeping; returns a value so the loop cannot be optimized away. *)
let spin budget =
  let acc = ref 0 in
  for i = 1 to budget do
    acc := !acc + (i * i)
  done;
  Sys.opaque_identity !acc

(* Heavily skewed when asked: every eighth element costs ~100x the
   rest, the shape that makes a bad schedule visible. *)
let cost_of ~skew x = if skew && x land 7 = 0 then 2_000 else 20

let arb_shape =
  let gen = QCheck.Gen.(triple (int_bound 300) (int_range 1 8) bool) in
  QCheck.make
    ~print:(fun (n, jobs, skew) ->
      Printf.sprintf "n=%d jobs=%d skew=%b" n jobs skew)
    gen

let prop_map_matches_sequential =
  QCheck.Test.make ~count:60 ~name:"map = Array.map across random shapes"
    arb_shape
    (fun (n, jobs, skew) ->
      let input = Array.init n (fun i -> i) in
      let f x =
        ignore (spin (cost_of ~skew x));
        (x * 7) + 3
      in
      Pool.map ~jobs f input
      = Array.map f input)

(* Structural comparison of supervised outcomes: values, error
   messages and attempt counts — everything the caller can observe. *)
let observe r =
  Array.map
    (function
      | Ok v -> Ok v
      | Error (e : Pool.exn_info) ->
          Error (Printexc.to_string e.Pool.exn, e.Pool.attempts))
    r

let prop_map_result_matches_sequential =
  QCheck.Test.make ~count:40
    ~name:"map_result = sequential, failures included"
    (QCheck.pair arb_shape (QCheck.int_range 0 2))
    (fun ((n, jobs, skew), retries) ->
      let input = Array.init n (fun i -> i) in
      let f x =
        ignore (spin (cost_of ~skew x));
        if x land 15 = 5 then failwith "flaky" else x * 3
      in
      observe (Pool.map_result ~jobs ~retries f input)
      = observe (Pool.map_result ~jobs:1 ~retries f input))

let prop_map_result_under_fault =
  QCheck.Test.make ~count:25 ~name:"map_result = sequential under GAT_FAULT"
    (QCheck.pair arb_shape (QCheck.int_bound 1000))
    (fun ((n, jobs, _skew), seed) ->
      let input = Array.init n (fun i -> i) in
      let spec = Printf.sprintf "pooltest:0.3,seed:%d" seed in
      let f x =
        Fault.inject ~site:"pooltest" ~key:(string_of_int x);
        x + 1
      in
      (* Fresh attempt counters before each run: transient injection
         re-rolls per attempt, so identical outcomes require identical
         attempt streams — which exactly-once scheduling guarantees. *)
      let run jobs =
        Fault.set_spec (Some spec);
        observe (Pool.map_result ~jobs ~retries:1 f input)
      in
      let par = run jobs in
      let seq = run 1 in
      Fault.set_spec None;
      par = seq)

(* Element [x] fails its first [x mod 4] attempts, whichever worker
   runs it, so the attempts each index needs are known up front.  Every
   index the map reaches must run exactly that many times (its recorded
   [attempts] when it fails); once the map has returned or raised,
   nothing runs again.  One worker halts right after the failure that
   crosses the budget, so it has reached exactly a prefix. *)
let prop_exact_attempts =
  QCheck.Test.make ~count:40
    ~name:"exact attempts, none after a halt"
    QCheck.(
      quad (int_bound 200) (int_range 1 8) (int_range 0 2)
        (option (int_bound 6)))
    (fun (n, jobs, retries, budget) ->
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      let f x =
        let attempt = 1 + Atomic.fetch_and_add calls.(x) 1 in
        if attempt <= x mod 4 then failwith "transient" else x
      in
      let attempts x = min ((x mod 4) + 1) (retries + 1) in
      let fails x = x mod 4 > retries in
      let outcome =
        match
          Pool.map_result ~jobs ~retries ?max_failures:budget f
            (Array.init n Fun.id)
        with
        | r -> Ok r
        | exception Pool.Budget_exceeded { failed; _ } -> Error failed
      in
      let ran = Array.map Atomic.get calls in
      Unix.sleepf 0.001;
      let settled = Array.map Atomic.get calls = ran in
      let reached x = ran.(x) > 0 in
      let whole = List.for_all (fun x -> ran.(x) = 0 || ran.(x) = attempts x) in
      let indices = List.init n Fun.id in
      settled && whole indices
      &&
      match outcome with
      | Ok r ->
          List.for_all
            (fun x ->
              match r.(x) with
              | Ok v -> v = x && not (fails x)
              | Error e -> fails x && e.Pool.attempts = ran.(x))
            indices
          && List.for_all reached indices
      | Error failed ->
          let failed_reached =
            List.filter (fun x -> reached x && fails x) indices
          in
          failed = List.length failed_reached
          && failed > Option.get budget
          && (jobs > 1
             ||
             let cross = List.nth failed_reached (Option.get budget) in
             List.for_all (fun x -> reached x = (x <= cross)) indices))

let qcheck_props =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      prop_map_matches_sequential;
      prop_map_result_matches_sequential;
      prop_map_result_under_fault;
      prop_exact_attempts;
    ]

let test_counter_dump_deterministic () =
  (* Two traced skewed runs must produce byte-identical counter dumps:
     the pool counts outcomes only, never how its workers interleaved
     (DESIGN.md 5.6). *)
  let run () =
    Metrics.reset ();
    Trace.enable ();
    let f x =
      ignore (spin (if x land 7 = 0 then 50_000 else 100));
      if x = 13 then failwith "boom" else x
    in
    ignore (Pool.map_result ~jobs:4 ~retries:1 f (Array.init 128 (fun i -> i)));
    let trace, _ = Trace.render () in
    Trace.disable ();
    Trace.clear ();
    (match Trace.validate_string ~require:[ "pool.jobs.ok" ] trace with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "trace invalid: %s" e);
    Metrics.render_counters ()
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "byte-identical counter dumps" a b

let () =
  Alcotest.run "gat_pool"
    [
      ( "map",
        [
          Alcotest.test_case "empty" `Quick test_map_empty;
          Alcotest.test_case "single element" `Quick test_map_single;
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "jobs > length" `Quick test_jobs_exceed_length;
          Alcotest.test_case "jobs=1 runs in order on the caller" `Quick
            test_jobs_one_on_caller;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
        ] );
      ( "map_result",
        [
          Alcotest.test_case "all Ok matches map" `Quick test_map_result_all_ok;
          Alcotest.test_case "failures recorded in place" `Quick
            test_map_result_records_failures;
          Alcotest.test_case "retry recovers transients" `Quick
            test_map_result_retry_recovers;
          Alcotest.test_case "attempts counted" `Quick
            test_map_result_attempts_counted;
          Alcotest.test_case "failure budget" `Quick test_map_result_budget;
          Alcotest.test_case "budget stops early" `Quick
            test_map_result_budget_early_stop;
          Alcotest.test_case "negative retries rejected" `Quick
            test_map_result_bad_retries;
        ] );
      ( "scheduler",
        qcheck_props
        @ [
            Alcotest.test_case "traced counter dumps deterministic" `Quick
              test_counter_dump_deterministic;
          ] );
      ( "config",
        [
          Alcotest.test_case "GAT_JOBS and override" `Quick test_env_and_override;
        ] );
    ]
