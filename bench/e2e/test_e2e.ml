(* Unit tests of the benchmark's pure parts: the statistics and
   regression rule, the per-layer ledger, and the agreement between the
   metric catalog and BENCHMARK.json. *)

open Gat_bench_e2e

let close = Alcotest.float 1e-9

let test_tail_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) want (Stats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 50.0);
  check 100 (Some 90.0);
  check 160 (Some 90.0);
  check 1000 (Some 99.0);
  check 10_000 (Some 99.9);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "nearest-rank p90" 90.0 (Stats.percentile 90.0 xs)

(* Reference values from Python's statistics.median / quantiles(n=4). *)
let test_median_quartiles () =
  Alcotest.check close "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..4" (1.25, 2.5, 3.75) (Stats.quartiles [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (10 - i))));
  Alcotest.check q3 "two" (0.75, 1.5, 2.25) (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.check q3 "three" (1.0, 2.0, 3.0) (Stats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check q3 "one" (7.0, 7.0, 7.0) (Stats.quartiles [ 7.0 ]);
  Alcotest.check close "spread" (5.5 /. 5.5)
    (Stats.rel_spread (List.init 10 (fun i -> float_of_int (i + 1))))

(* Two operations of different cost: one stray sample moves the pooled
   median across the gap between them, and the mean of the
   per-operation medians barely. *)
let test_mean_of_medians () =
  let ops = [ ("a", 60.0); ("a", 62.0); ("b", 70.0); ("b", 72.0) ] in
  let stray = ("a", 69.0) :: ops in
  Alcotest.check close "two operations" 66.0 (Stats.mean_of_medians ops);
  Alcotest.check close "a stray sample" 66.5 (Stats.mean_of_medians stray);
  Alcotest.check close "pooled median with the stray" 69.0
    (Stats.median (List.map snd stray));
  Alcotest.check close "one operation" 3.0 (Stats.mean_of_medians [ ("x", 3.0) ])

let test_verdict () =
  let v = Alcotest.testable (Fmt.of_to_string Stats.string_of_verdict) ( = ) in
  let steady m = [ m *. 0.99; m; m; m *. 1.01; m ] in
  let lower ~parent ~change = Stats.verdict ~better:Lower ~bound:0.1 ~parent ~change in
  Alcotest.check v "within bound" Stats.Ok (lower ~parent:(steady 100.0) ~change:(steady 105.0));
  Alcotest.check v "past bound" Stats.Regressed
    (lower ~parent:(steady 100.0) ~change:(steady 115.0));
  Alcotest.check v "better" Stats.Ok (lower ~parent:(steady 100.0) ~change:(steady 50.0));
  let noisy = [ 60.0; 100.0; 140.0; 80.0; 120.0 ] in
  Alcotest.check v "spread wider than bound" Stats.Unresolved
    (lower ~parent:noisy ~change:(steady 100.0));
  Alcotest.check v "every change run better" Stats.Ok
    (lower ~parent:noisy ~change:[ 10.0; 30.0; 50.0 ]);
  Alcotest.check v "higher is better" Stats.Regressed
    (Stats.verdict ~better:Higher ~bound:0.1 ~parent:(steady 100.0) ~change:(steady 85.0));
  Alcotest.check close "worsening" 0.2
    (Stats.worsening ~better:Higher ~parent:100.0 ~change:80.0)

let span ?(tid = 0) ?(args = []) name ts dur =
  { Gat_util.Trace.name; ph = 'X'; ts_ns = Int64.of_int ts; dur_ns = Int64.of_int dur; tid; args }

let test_ledger_closure () =
  let events =
    [
      span "bench.op" 0 100;
      span "bench.call" 5 90 ~args:[ ("layer", Gat_util.Trace.S "tuner") ];
      span "compile" 10 50;
      span "compile.lower" 20 10;
      (* Unknown to the ledger: charged to the enclosing layer. *)
      span "future.span" 35 10;
      span "simulate" 70 20;
      { (span "pool.steal" 75 0) with ph = 'i' };
      (* A second track closes on its own. *)
      span ~tid:1 "bench.op" 0 40;
      span ~tid:1 "verify.run" 10 30;
    ]
  in
  let l = Ledger.of_events events in
  let row layer = Int64.to_int (Option.value ~default:0L (List.assoc_opt layer l.rows)) in
  Alcotest.(check int) "unattributed" (10 + 10) (row "unattributed");
  Alcotest.(check int) "tuner self" (90 - 50 - 20) (row "tuner");
  Alcotest.(check int) "compile self + unknown child" (50 - 10) (row "compile");
  Alcotest.(check int) "lowering" 10 (row "lowering");
  Alcotest.(check int) "engine" 20 (row "engine");
  Alcotest.(check int) "verify" 30 (row "verify");
  Alcotest.(check int64) "wall" 140L l.wall_ns;
  Alcotest.check close "rows close on the wall time" 0.0
    (Ledger.closure_error l ~wall_ns:l.wall_ns);
  Alcotest.(check string) "leaf metric" "lowering.s" (Ledger.metric_name "lowering");
  Alcotest.(check string) "container metric" "compile.self_s" (Ledger.metric_name "compile");
  Alcotest.(check string) "dotted leaf" "disk_cache.read_s" (Ledger.metric_name "disk_cache.read")

(* ---- BENCHMARK.json against the catalog ---- *)

(* The file keeps one entry per line, so a line scan reads it. *)
let string_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let rec find i =
    if i + String.length pat > String.length line then None
    else if String.sub line i (String.length pat) = pat then Some (i + String.length pat)
    else find (i + 1)
  in
  Option.map
    (fun i ->
      if line.[i] = '"' then String.sub line (i + 1) (String.index_from line (i + 1) '"' - i - 1)
      else
        let j = ref i in
        while !j < String.length line && not (String.contains ",}" line.[!j]) do incr j done;
        String.sub line i (!j - i))
    (find 0)

let benchmark_entries () =
  let section = ref "" and entries = ref [] in
  In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         List.iter
           (fun s -> if string_field line s = Some "[" then section := s)
           [ "workloads"; "end_to_end"; "per_layer" ];
         match string_field line "name" with
         | Some name -> entries := (!section, name, line) :: !entries
         | None -> ());
  List.rev !entries

let valid_name name =
  String.length name <= 64
  && String.length name > 0
  && (match name.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let test_benchmark_json () =
  let entries = benchmark_entries () in
  List.iter
    (fun (_, name, _) -> Alcotest.(check bool) ("valid name " ^ name) true (valid_name name))
    entries;
  let names section =
    List.filter_map (fun (s, n, _) -> if s = section then Some n else None) entries
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Catalog.workloads) (names "workloads");
  List.iter
    (fun (s, name, line) ->
      if s = "workloads" then
        Alcotest.(check (option string))
          (name ^ " why") (List.assoc_opt name Catalog.workloads) (string_field line "why"))
    entries;
  let metrics section (catalog : Catalog.metric list) =
    Alcotest.(check (list string))
      section
      (List.map (fun (m : Catalog.metric) -> m.name) catalog)
      (names section);
    List.iter
      (fun (s, name, line) ->
        if s = section then begin
          let m = Option.get (Catalog.find name) in
          Alcotest.(check (option string))
            (name ^ " unit") (Some m.unit_) (string_field line "unit");
          Alcotest.(check (option string))
            (name ^ " direction")
            (Some (Stats.string_of_better m.better))
            (string_field line "better");
          if section = "end_to_end" then
            Alcotest.(check (option (float 1e-12)))
              (name ^ " bound") (Some m.bound)
              (Option.map float_of_string (string_field line "bound"))
        end)
      entries
  in
  metrics "end_to_end" Catalog.end_to_end;
  metrics "per_layer" Catalog.per_layer;
  Alcotest.(check bool) "setup_s is an end-to-end metric" true
    (List.exists (fun (m : Catalog.metric) -> m.name = "setup_s") Catalog.end_to_end)

let () =
  Alcotest.run "gat_bench_e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "mean of medians" `Quick test_mean_of_medians;
          Alcotest.test_case "bound check" `Quick test_verdict;
        ] );
      ("ledger", [ Alcotest.test_case "closure" `Quick test_ledger_closure ]);
      ("catalog", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
    ]
