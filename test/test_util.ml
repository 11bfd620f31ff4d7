(* Tests for gat_util: PRNG, statistics, histograms, tables, CSV. *)

open Gat_util

let check_float = Alcotest.(check (float 1e-9))
let check_close msg = Alcotest.(check (float 1e-6)) msg

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniform_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 5 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.uniform rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 9 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_lognormal_positive () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.lognormal rng ~mu:0.0 ~sigma:0.5 > 0.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs" false (Rng.int64 a = Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 42 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 13 in
  let original = Array.init 50 Fun.id in
  let shuffled = Array.copy original in
  Rng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" original sorted

let test_rng_choose () =
  let rng = Rng.create 17 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose rng arr) arr)
  done

(* ---- Stats ---- *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])
let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]))

let test_variance () =
  (* Unbiased: sum of squared deviations 10 over n-1 = 4. *)
  check_close "sample variance" 2.5 (Stats.variance [| 1.; 2.; 3.; 4.; 5. |]);
  check_close "variance of pairs" 0.5 (Stats.variance [| 1.; 2. |])

let test_std_singleton () = check_float "std of single" 0.0 (Stats.std [| 7.0 |])

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 2. |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_median_odd () = check_float "odd median" 3.0 (Stats.median [| 5.; 1.; 3. |])
let test_median_even () = check_float "even median" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_percentile_interpolation () =
  let xs = [| 0.; 10. |] in
  check_float "p25" 2.5 (Stats.percentile xs 25.0);
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p100" 10.0 (Stats.percentile xs 100.0)

let test_percentile_range_check () =
  Alcotest.check_raises "p>100" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 101.0))

let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "q1" 2.0 q1;
  check_float "q2" 3.0 q2;
  check_float "q3" 4.0 q3

let test_mode () =
  check_float "mode" 2.0 (Stats.mode [| 1.; 2.; 2.; 3. |]);
  check_float "tie -> smaller" 1.0 (Stats.mode [| 2.; 1. |])

let test_mode_rounding () =
  check_float "rounds to 2 decimals" 1.23 (Stats.mode [| 1.231; 1.229; 5.0 |])

let test_mae () = check_float "mae" 1.0 (Stats.mae [| 1.; 2. |] [| 2.; 1. |])
let test_sse () = check_float "sse" 2.0 (Stats.sse [| 1.; 2. |] [| 2.; 1. |])
let test_rmse () = check_float "rmse" 1.0 (Stats.rmse [| 1.; 2. |] [| 2.; 1. |])

let test_mae_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Stats.mae: length mismatch")
    (fun () -> ignore (Stats.mae [| 1.0 |] [| 1.0; 2.0 |]))

let test_normalize () =
  Alcotest.(check (array (float 1e-9))) "normalize" [| 0.0; 0.5; 1.0 |]
    (Stats.normalize [| 2.; 4.; 6. |])

let test_normalize_constant () =
  Alcotest.(check (array (float 1e-9))) "constant -> zeros" [| 0.0; 0.0 |]
    (Stats.normalize [| 5.; 5. |])

let test_summarize () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "p50" 2.5 s.Stats.p50

(* property tests *)

let prop_percentile_within =
  QCheck.Test.make ~count:200 ~name:"percentile stays within sample bounds"
    QCheck.(pair (array_of_size Gen.(int_range 1 30) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (xs, p) ->
      QCheck.assume (Array.length xs > 0);
      let v = Stats.percentile xs p in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_mean_within =
  QCheck.Test.make ~count:200 ~name:"mean within min/max"
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
      QCheck.assume (Array.length xs > 0);
      let m = Stats.mean xs in
      let lo, hi = Stats.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_normalize_bounds =
  QCheck.Test.make ~count:200 ~name:"normalize lands in [0,1]"
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
      QCheck.assume (Array.length xs > 0);
      Array.for_all (fun v -> v >= 0.0 && v <= 1.0) (Stats.normalize xs))

(* ---- Histogram ---- *)

let test_histogram_counts () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 [| 1.0; 3.0; 9.0 |] in
  Alcotest.(check (array int)) "bins" [| 1; 1; 0; 0; 1 |] h.Histogram.counts

let test_histogram_clamps () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:2 [| -5.0; 15.0 |] in
  Alcotest.(check int) "total kept" 2 (Histogram.total h);
  Alcotest.(check (array int)) "edge bins" [| 1; 1 |] h.Histogram.counts

let test_histogram_edges () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:2 [||] in
  let edges = Histogram.bin_edges h in
  Alcotest.(check (float 1e-9)) "first lo" 0.0 (fst edges.(0));
  Alcotest.(check (float 1e-9)) "last hi" 10.0 (snd edges.(1))

let test_histogram_bad_args () =
  Alcotest.check_raises "bins" (Invalid_argument "Histogram.create: bins must be positive")
    (fun () -> ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0 [||]));
  Alcotest.check_raises "bounds" (Invalid_argument "Histogram.create: lo must be < hi")
    (fun () -> ignore (Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3 [||]))

let test_histogram_render () =
  let h = Histogram.create ~lo:0.0 ~hi:2.0 ~bins:2 [| 0.5; 1.5; 1.6 |] in
  let s = Histogram.render h in
  Alcotest.(check bool) "has bars" true (String.length s > 0)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~title:"T" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains cell" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0))

let test_table_arity () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_aligns () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "aligns arity"
    (Invalid_argument "Table.set_aligns: arity mismatch") (fun () ->
      Table.set_aligns t [ Table.Left; Table.Right ])

let test_table_of_rows () =
  let s = Table.of_rows [ "x" ] [ [ "1" ]; [ "2" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 10)

(* ---- Csv ---- *)

let test_csv_escape_plain () = Alcotest.(check string) "plain" "abc" (Csv.escape "abc")

let test_csv_escape_comma () =
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b")

let test_csv_escape_quote () =
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_row () =
  Alcotest.(check string) "row" "a,\"b,c\"" (Csv.row_to_string [ "a"; "b,c" ])

let test_csv_to_string () =
  Alcotest.(check string) "rows" "a,b\nc,d\n"
    (Csv.to_string [ [ "a"; "b" ]; [ "c"; "d" ] ])

(* ---- Sealed_file ---- *)

(* A publish whose rename fails (the target is a non-empty directory)
   raises and leaves no temp file in the directory. *)
let test_publish_failure_leaves_no_temp () =
  let d = Filename.temp_dir "gat-test-sealed" "" in
  let target = Filename.concat d "entry" in
  Sys.mkdir target 0o755;
  let inner = Filename.concat target "keep" in
  Out_channel.with_open_bin inner (fun oc -> Out_channel.output_string oc "x");
  let buf = Buffer.create 16 in
  Buffer.add_string buf "payload\n";
  Gat_util.Sealed_file.seal buf;
  let raised =
    match Gat_util.Sealed_file.publish ~path:target buf with
    | () -> false
    | exception Sys_error _ -> true
  in
  let left = Array.to_list (Sys.readdir d) in
  Sys.remove inner;
  Sys.rmdir target;
  List.iter (fun f -> Sys.remove (Filename.concat d f)) (List.filter (( <> ) "entry") left);
  Sys.rmdir d;
  Alcotest.(check bool) "raises Sys_error" true raised;
  Alcotest.(check (list string)) "no temp file left" [ "entry" ] left

(* ---- Memo ---- *)

module Int_memo = Memo.Make (Int)

let test_memo_single_flight () =
  let memo = Int_memo.create () in
  let computed = Array.init 8 (fun _ -> Atomic.make 0) in
  let results =
    Pool.map ~jobs:4
      (fun i ->
        let k = i mod 8 in
        Int_memo.find_or_compute memo k (fun () ->
            Atomic.incr computed.(k);
            (* Hold the slot long enough for other domains to ask. *)
            Unix.sleepf 0.005;
            ref k))
      (Array.init 64 Fun.id)
  in
  Array.iteri
    (fun k c -> Alcotest.(check int) (Printf.sprintf "key %d computed once" k) 1 (Atomic.get c))
    computed;
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "physically shared" true (r == results.(i mod 8)))
    results;
  Alcotest.(check int) "misses = distinct keys" 8 (Int_memo.misses memo);
  Alcotest.(check int) "every other call a hit" 56 (Int_memo.hits memo)

let test_memo_raise_wakes_waiters () =
  let memo = Int_memo.create () in
  (match Int_memo.find_or_compute memo 1 (fun () -> failwith "boom") with
  | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m
  | _ -> Alcotest.fail "expected raise");
  Alcotest.(check (option int)) "absent after raise" None (Int_memo.find memo 1);
  Alcotest.(check int) "no entry" 0 (Int_memo.length memo);
  let started = Atomic.make false and release = Atomic.make false in
  let failing =
    Domain.spawn (fun () ->
        match
          Int_memo.find_or_compute memo 2 (fun () ->
              Atomic.set started true;
              while not (Atomic.get release) do Domain.cpu_relax () done;
              failwith "late")
        with
        | exception Failure _ -> true
        | _ -> false)
  in
  while not (Atomic.get started) do Domain.cpu_relax () done;
  Alcotest.(check int) "pending slot" 1 (Int_memo.length memo);
  Alcotest.(check (option int)) "pending is not found" None (Int_memo.find memo 2);
  let waiter = Domain.spawn (fun () -> Int_memo.find_or_compute memo 2 (fun () -> 42)) in
  Unix.sleepf 0.02;
  Atomic.set release true;
  Alcotest.(check bool) "computation raised" true (Domain.join failing);
  Alcotest.(check int) "waiter woken, computes" 42 (Domain.join waiter);
  Alcotest.(check (option int)) "held" (Some 42) (Int_memo.find memo 2)

let test_memo_add_and_clear () =
  let memo = Int_memo.create () in
  Alcotest.(check string) "first add" "a" (Int_memo.add memo 1 "a");
  Alcotest.(check string) "first insert wins" "a" (Int_memo.add memo 1 "b");
  Alcotest.(check string) "computed value ignored" "a"
    (Int_memo.find_or_compute memo 1 (fun () -> "c"));
  ignore (Int_memo.find_or_compute memo 2 (fun () -> "d"));
  Alcotest.(check (pair int int)) "hits, misses" (1, 1)
    (Int_memo.hits memo, Int_memo.misses memo);
  Int_memo.clear memo;
  Alcotest.(check int) "no entries" 0 (Int_memo.length memo);
  Alcotest.(check (pair int int)) "counts reset" (0, 0)
    (Int_memo.hits memo, Int_memo.misses memo);
  Alcotest.(check string) "recomputed" "e"
    (Int_memo.find_or_compute memo 1 (fun () -> "e"))

let () =
  Alcotest.run "gat_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "lognormal positive" `Quick test_rng_lognormal_positive;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "choose member" `Quick test_rng_choose;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "std singleton" `Quick test_std_singleton;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "percentile range" `Quick test_percentile_range_check;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "mode" `Quick test_mode;
          Alcotest.test_case "mode rounding" `Quick test_mode_rounding;
          Alcotest.test_case "mae" `Quick test_mae;
          Alcotest.test_case "sse" `Quick test_sse;
          Alcotest.test_case "rmse" `Quick test_rmse;
          Alcotest.test_case "mae mismatch" `Quick test_mae_length_mismatch;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "normalize constant" `Quick test_normalize_constant;
          Alcotest.test_case "summarize" `Quick test_summarize;
          QCheck_alcotest.to_alcotest prop_percentile_within;
          QCheck_alcotest.to_alcotest prop_mean_within;
          QCheck_alcotest.to_alcotest prop_normalize_bounds;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "clamps" `Quick test_histogram_clamps;
          Alcotest.test_case "edges" `Quick test_histogram_edges;
          Alcotest.test_case "bad args" `Quick test_histogram_bad_args;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "memo",
        [
          Alcotest.test_case "single flight" `Quick test_memo_single_flight;
          Alcotest.test_case "raise wakes waiters" `Quick test_memo_raise_wakes_waiters;
          Alcotest.test_case "add and clear" `Quick test_memo_add_and_clear;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "aligns arity" `Quick test_table_aligns;
          Alcotest.test_case "of_rows" `Quick test_table_of_rows;
        ] );
      ( "sealed_file",
        [
          Alcotest.test_case "failed publish leaves no temp" `Quick
            test_publish_failure_leaves_no_temp;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape plain" `Quick test_csv_escape_plain;
          Alcotest.test_case "escape comma" `Quick test_csv_escape_comma;
          Alcotest.test_case "escape quote" `Quick test_csv_escape_quote;
          Alcotest.test_case "row" `Quick test_csv_row;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
        ] );
    ]
