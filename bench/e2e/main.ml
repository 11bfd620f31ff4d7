(* End-to-end benchmark of the autotuner.

   One orchestrating process generates all load: it runs every measured
   phase as a child process of this binary, one at a time, so each
   phase starts with cold in-memory caches and has its own peak memory,
   and each pass gets a fresh cache directory under [.bench-e2e/].

   Usage (from the repository root):

     dune exec bench/e2e/main.exe -- [--seed S] [--repeat R] [--trace]
         all four workloads, R repetitions each (default 5), printed as
         median and quartiles per metric
     dune exec bench/e2e/main.exe -- --workload W --seed S --seconds T --trace 0|1
         one run of one workload; the last stdout line is a JSON result
     dune exec bench/e2e/main.exe -- --compare A B
         regression verdicts between two files written by --record

   See bench/e2e/README.md for the metrics, workloads and process
   model. *)

open Gat_bench_e2e

let out_dir = ".bench-e2e"
let expected_file = "bench/e2e/expected"
let default_seconds = 15.0

(* A run finishes within three minutes: children still running past
   this are killed and the run fails. *)
let run_budget_s = 170.0

(* A set-up takes about ten milliseconds, so a handful of them reads
   the host's noise more than the set-up; this many costs a tenth of a
   second per pass. *)
let setups_per_pass = 8

(* ---- results ---- *)

type acc = {
  mutable cold : (string * float) list;  (** Operation label, ms. *)
  mutable warm : (string * float) list;
  mutable op_s : float;  (** Time spent in measured operations. *)
  counters : (string, int) Hashtbl.t;
  timers : (string, float) Hashtbl.t;
  mutable rss_kb : int;
  mutable cache_bytes : int list;  (** One per pass, at its end. *)
  mutable attempted : int;
  mutable failed : int;
  mutable wall_ns : int64;  (** Children's in-process phase time. *)
  mutable ledger : Ledger.t;
  mutable worker_ledger : Ledger.t;
  mutable dropped : int;
  mutable events : string list;  (** Trace event files of traced children. *)
  mutable pass_s : float list;
}

let new_acc () =
  {
    cold = [];
    warm = [];
    op_s = 0.0;
    counters = Hashtbl.create 64;
    timers = Hashtbl.create 8;
    rss_kb = 0;
    cache_bytes = [];
    attempted = 0;
    failed = 0;
    wall_ns = 0L;
    ledger = Ledger.empty;
    worker_ledger = Ledger.empty;
    dropped = 0;
    events = [];
    pass_s = [];
  }

let counter acc name = Option.value ~default:0 (Hashtbl.find_opt acc.counters name)
let timer acc name = Option.value ~default:0.0 (Hashtbl.find_opt acc.timers name)

let fail acc fmt =
  Printf.ksprintf
    (fun msg ->
      acc.failed <- acc.failed + 1;
      prerr_endline ("bench: " ^ msg))
    fmt

type state = {
  seed : int;
  work : string;  (** Scratch directory of this run. *)
  deadline : int64;
  expected : (string * string, string) Hashtbl.t;
  mutable next_out : int;
}

let load_expected () =
  let tbl = Hashtbl.create 16 in
  (match Proc.read_file expected_file with
  | s ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ w; label; md5 ] when not (String.starts_with ~prefix:"#" w) ->
              Hashtbl.replace tbl (w, label) md5
          | _ -> ())
        (String.split_on_char '\n' s)
  | exception Sys_error e -> prerr_endline ("bench: no pinned digests: " ^ e));
  tbl

let check_pinned st acc ~workload ~label actual =
  match Hashtbl.find_opt st.expected (workload, label) with
  | Some md5 when md5 = actual -> ()
  | Some md5 -> fail acc "%s %s: output digest %s, pinned %s" workload label actual md5
  | None -> fail acc "%s %s: no pinned digest (got %s)" workload label actual

(* ---- children ---- *)

exception Run_timeout

(* Run one child phase; returns its records and spawn-to-exit seconds. *)
let run_child st acc ~cache ~jobs args =
  st.next_out <- st.next_out + 1;
  let out = Filename.concat st.work (Printf.sprintf "child-%d.out" st.next_out) in
  let t0 = Proc.now_ns () in
  let pid = Proc.spawn ~env:(Proc.child_env ~cache ~jobs) (args @ [ "--out"; out ]) in
  match Proc.wait ~deadline:st.deadline pid with
  | Unix.WEXITED 0 ->
      let s = Proc.seconds_since t0 in
      let events = out ^ ".events" in
      if Sys.file_exists events then acc.events <- events :: acc.events;
      (Proc.records_of_string (Proc.read_file out), s)
  | _ ->
      fail acc "child %s exited abnormally" (String.concat " " args);
      ([], Proc.seconds_since t0)
  | exception Proc.Timeout ->
      fail acc "child %s ran past the run's time budget" (String.concat " " args);
      raise Run_timeout

let add_ledger (l : Ledger.t) layer ns =
  Ledger.add l { Ledger.rows = [ (layer, ns) ]; wall_ns = 0L }

(* Fold a child's records into the accumulator. *)
let absorb acc records =
  List.iter
    (function
      | [ "op"; cls; ms; label ] ->
          let ms = float_of_string ms in
          (match cls with
          | "cold" -> acc.cold <- (label, ms) :: acc.cold
          | _ -> acc.warm <- (label, ms) :: acc.warm);
          acc.op_s <- acc.op_s +. (ms /. 1e3)
      | [ "counter"; name; d ] ->
          Hashtbl.replace acc.counters name (counter acc name + int_of_string d)
      | [ "timer"; name; s ] ->
          Hashtbl.replace acc.timers name (timer acc name +. float_of_string s)
      | [ "rss_kb"; kb ] -> acc.rss_kb <- max acc.rss_kb (int_of_string kb)
      | [ "wall_ns"; ns ] -> acc.wall_ns <- Int64.add acc.wall_ns (Int64.of_string ns)
      | [ "layer"; l; ns ] -> acc.ledger <- add_ledger acc.ledger l (Int64.of_string ns)
      | [ "worker_layer"; l; ns ] ->
          acc.worker_ledger <- add_ledger acc.worker_ledger l (Int64.of_string ns)
      | [ "worker_wall_ns"; ns ] ->
          acc.worker_ledger <-
            Ledger.add acc.worker_ledger { Ledger.rows = []; wall_ns = Int64.of_string ns }
      | [ "dropped"; n ] -> acc.dropped <- acc.dropped + int_of_string n
      | [ "fail"; msg ] -> fail acc "%s" msg
      | [ "attempts"; n ] -> acc.attempted <- acc.attempted + int_of_string n
      | _ -> ())
    records

let digests records =
  List.filter_map (function [ "digest"; label; md5 ] -> Some (label, md5) | _ -> None) records

(* One pass of a workload in a fresh cache directory. *)
let run_pass st acc ~workload ~jobs ~traced =
  let cache = Filename.concat st.work "cache" in
  Proc.fresh_dir cache;
  let t0 = Proc.now_ns () in
  let child phase extra =
    run_child st acc ~cache ~jobs
      ([ "--child"; workload; "--phase"; phase; "--seed"; string_of_int st.seed;
         "--jobs"; string_of_int jobs ]
      @ (if traced then [ "--traced" ] else [])
      @ extra)
  in
  (match workload with
  | "reproduce" ->
      let cold = Hashtbl.create 4 in
      List.iteri
        (fun i (it : Scenario.item) ->
          (* The render's own time, timed in the child: starting and
             reaping a process is what set-up measures, and its noise
             on a busy host is a large share of a warm render. *)
          let records, _ = child "render" [ "--item"; string_of_int i ] in
          absorb acc records;
          List.iter
            (fun (label, md5) ->
              match it.cls with
              | Scenario.Cold ->
                  Hashtbl.replace cold label md5;
                  check_pinned st acc ~workload ~label md5
              | Scenario.Warm ->
                  if Hashtbl.find_opt cold label <> Some md5 then
                    fail acc "%s %s: warm render differs from the cold one" workload label)
            (digests records))
        (Scenario.plan workload st.seed)
  | _ ->
      let records, _ = child "pass" [] in
      absorb acc records;
      (* The outputs depend on the seed; the ones pinned are seed 42's. *)
      if st.seed = 42 then begin
        match workload with
        | "static-tune" ->
            let outcomes =
              List.filter_map
                (function
                  | "outcome" :: fields -> Some (Proc.record_line fields)
                  | _ -> None)
                records
            in
            check_pinned st acc ~workload ~label:"outcomes"
              (Scenario.md5 (String.concat "" outcomes))
        | _ ->
            List.iter
              (fun (label, md5) -> check_pinned st acc ~workload ~label md5)
              (digests records)
      end);
  acc.pass_s <- Proc.seconds_since t0 :: acc.pass_s;
  acc.cache_bytes <- Proc.dir_bytes cache :: acc.cache_bytes;
  Proc.rm_rf cache

(* A child whose work is not measured: only its verdicts count. *)
let unmeasured_child st acc ~workload ~phase =
  let cache = Filename.concat st.work "cache" in
  Proc.rm_rf cache;
  let records, s =
    run_child st acc ~cache ~jobs:Proc.host_jobs
      [ "--child"; workload; "--phase"; phase; "--seed"; string_of_int st.seed ]
  in
  List.iter
    (function
      | [ "fail"; msg ] -> fail acc "%s" msg
      | [ "attempts"; n ] -> acc.attempted <- acc.attempted + int_of_string n
      | _ -> ())
    records;
  Proc.rm_rf cache;
  s

(* Set-up: a fresh process that derives the workload's inputs from the
   seed and compiles each of its kernels once. *)
let run_setup st acc ~workload = unmeasured_child st acc ~workload ~phase:"setup"

(* Whole passes until [seconds] of them have run, each after a few
   set-ups, so the set-up median samples the whole run.  Passes have
   identical composition, so their number changes the sample count,
   never what the medians describe.  Returns the set-up times. *)
let run_passes st acc ~workload ~seconds =
  let setup = ref [] in
  while List.fold_left ( +. ) 0.0 acc.pass_s < seconds do
    for _ = 1 to setups_per_pass do
      setup := run_setup st acc ~workload :: !setup
    done;
    run_pass st acc ~workload ~jobs:Proc.host_jobs ~traced:false
  done;
  !setup

let run_check st acc ~workload = ignore (unmeasured_child st acc ~workload ~phase:"check")

(* ---- metrics ---- *)

let median_or_nan = function [] -> nan | xs -> Stats.median xs
let latency_or_nan = function [] -> nan | ops -> Stats.mean_of_medians ops
let mb bytes = float_of_int bytes /. 1e6

let end_to_end_metrics acc ~setup =
  [
    ("setup_s", Stats.median setup);
    ("cold_p50_ms", latency_or_nan acc.cold);
    ("warm_p50_ms", latency_or_nan acc.warm);
    ("points_per_s", float_of_int (counter acc "sim.runs") /. acc.op_s);
    ("peak_rss_mb", mb (acc.rss_kb * 1024));
    ("cache_mb", median_or_nan (List.map mb acc.cache_bytes));
  ]

let ratio hits misses =
  if hits + misses = 0 then nan else float_of_int hits /. float_of_int (hits + misses)

let per_layer_metrics ~counts ~plain ~traced =
  let wall_u = Int64.to_float plain.wall_ns and wall_t = Int64.to_float traced.wall_ns in
  List.map
    (fun l -> (Ledger.metric_name l, Ledger.seconds traced.ledger l))
    Catalog.timed_layers
  @ [
      ("trace.overhead_pct", 100.0 *. (wall_t -. wall_u) /. wall_u);
      ("compile.calls", float_of_int (counter counts "compile.count"));
      ("engine.runs", float_of_int (counter counts "sim.runs"));
    ]
  @ List.concat_map
      (fun (p, h, m) ->
        let h = counter counts h and m = counter counts m in
        [ (p ^ ".hit_ratio", ratio h m); (p ^ ".lookups", float_of_int (h + m)) ])
      Catalog.hit_ratios
  @ [
      ("artifacts.bytes_read", float_of_int (counter counts "artifact.bytes_read"));
      ("artifacts.bytes_written", float_of_int (counter counts "artifact.bytes_written"));
    ]

(* Rows only some workloads reach: printed and written to the ledger
   file, with their units, where the workload exercises them. *)
let workload_rows ~counts ~traced =
  let timed = List.map Ledger.metric_name Catalog.timed_layers in
  let own =
    List.filter_map
      (fun (l, ns) ->
        let name = Ledger.metric_name l in
        if List.mem name timed then None else Some (name, Int64.to_float ns /. 1e9, "s"))
      traced.ledger.Ledger.rows
  in
  let workers =
    if traced.worker_ledger.Ledger.wall_ns = 0L then []
    else
      ("worker.wall_s", Int64.to_float traced.worker_ledger.Ledger.wall_ns /. 1e9, "s")
      :: List.map
           (fun (l, ns) -> ("worker." ^ Ledger.metric_name l, Int64.to_float ns /. 1e9, "s"))
           traced.worker_ledger.Ledger.rows
  in
  let c = counter counts in
  let when_ cond rows = if cond then rows else [] in
  let busy = timer counts "pool.worker.busy" and idle = timer counts "pool.worker.idle" in
  let disk = c "cache.disk.hits" + c "cache.disk.misses" in
  own @ workers
  @ when_ (busy +. idle > 0.0)
      [
        ("pool.busy_ratio", busy /. (busy +. idle), "ratio");
        ("pool.busy_s", busy, "s");
        ("pool.idle_s", idle, "s");
        ("pool.steals", float_of_int (c "pool.steals"), "count");
      ]
  @ when_ (disk > 0)
      [
        ("disk_cache.hit_ratio", ratio (c "cache.disk.hits") (c "cache.disk.misses"), "ratio");
        ("disk_cache.lookups", float_of_int disk, "count");
        ("disk_cache.bytes_read", float_of_int (c "cache.disk.bytes_read"), "bytes");
      ]
  @ when_ (c "shard.planned" > 0)
      [
        ("lease.renewals", float_of_int (c "lease.renewals"), "count");
        ("telemetry.flushes", float_of_int (c "telem.flushes"), "count");
        (* A shard's per-block flush writes its .ckpt, which no counter
           records, and renews its lease: one checkpoint per renewal. *)
        ( "shard.sealed_writes_per_block",
          float_of_int ((2 * c "lease.renewals") + c "telem.flushes")
          /. float_of_int (max 1 (c "sweep.blocks")),
          "count" );
        ("shard.reclaimed", float_of_int (c "shard.leases_reclaimed"), "count");
      ]

(* ---- one run of one workload ---- *)

type result = {
  workload : string;
  seed : int;
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  notes : string list;
}

let unit_of name =
  match Catalog.find name with Some m -> m.Catalog.unit_ | None -> ""

let host_line () =
  Printf.sprintf "host: nproc=%d jobs=%d ocaml=%s" Proc.nproc Proc.host_jobs Sys.ocaml_version

let sample_note cls ops =
  let xs = List.map snd ops in
  let n = List.length xs in
  if n = 0 then Printf.sprintf "%s ops: none" cls
  else
    Printf.sprintf "%s ops: n=%d p50=%.4g ms%s" cls n (Stats.median xs)
      (match Stats.tail_percentile n with
      | Some p when p > 50.0 -> Printf.sprintf " p%g=%.4g ms" p (Stats.percentile p xs)
      | _ -> " (too few samples for a tail percentile)")

let write_trace_files ~workload ~seed ~rows acc =
  let stem = Filename.concat out_dir (Printf.sprintf "%s-seed%d" workload seed) in
  let b = Buffer.create 2048 in
  List.iter (fun (name, v, u) -> Printf.bprintf b "%s\t%.17g\t%s\n" name v u) rows;
  Proc.write_file (stem ^ ".ledger.tsv") (Buffer.contents b);
  let processes =
    List.concat_map
      (fun file ->
        let blocks = ref [] in
        List.iter
          (fun line ->
            match String.split_on_char '\t' line with
            | [ "process"; host; pid; mono; wall; dropped ] ->
                blocks := (host, pid, mono, wall, dropped, ref []) :: !blocks
            | _ when line <> "" -> (
                match !blocks with
                | (_, _, _, _, _, lines) :: _ -> lines := line :: !lines
                | [] -> ())
            | _ -> ())
          (String.split_on_char '\n' (Proc.read_file file));
        List.filter_map
          (fun (host, pid, mono, wall, dropped, lines) ->
            match Gat_util.Trace.parse_events (String.concat "\n" (List.rev !lines)) with
            | Some events ->
                Some
                  {
                    Gat_util.Trace.p_host = host;
                    p_pid = int_of_string pid;
                    p_anchor_mono_ns = Int64.of_string mono;
                    p_anchor_wall_ns = Int64.of_string wall;
                    p_events = events;
                    p_counters = [];
                    p_dropped = int_of_string dropped;
                  }
            | None -> None)
          (List.rev !blocks))
      (List.rev acc.events)
  in
  let json, _ = Gat_util.Trace.render_merged processes in
  Proc.write_file (stem ^ ".trace.json") json;
  stem

let run_workload ~workload ~seed ~seconds ~trace =
  let work = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Proc.fresh_dir work;
  let st =
    {
      seed;
      work;
      deadline = Proc.deadline_in run_budget_s;
      expected = load_expected ();
      next_out = 0;
    }
  in
  let acc = new_acc () in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let metrics =
    try
      if not trace then begin
        let setup = run_passes st acc ~workload ~seconds in
        run_check st acc ~workload;
        note "passes: %d (%.1f s measured), set-ups: %d" (List.length acc.pass_s)
          (List.fold_left ( +. ) 0.0 acc.pass_s)
          (List.length setup);
        note "%s" (sample_note "cold" acc.cold);
        note "%s" (sample_note "warm" acc.warm);
        end_to_end_metrics acc ~setup
      end
      else begin
        (* Counts from a pass at the usual worker count; the ledger from
           a traced pass at one job, timed against an untraced one. *)
        let counts = acc in
        run_pass st counts ~workload ~jobs:Proc.host_jobs ~traced:false;
        let plain = new_acc () and traced = new_acc () in
        run_pass st plain ~workload ~jobs:1 ~traced:false;
        run_pass st traced ~workload ~jobs:1 ~traced:true;
        run_check st acc ~workload;
        List.iter
          (fun (a : acc) ->
            acc.attempted <- acc.attempted + a.attempted;
            acc.failed <- acc.failed + a.failed)
          [ plain; traced ];
        let closure = Ledger.closure_error traced.ledger ~wall_ns:traced.wall_ns in
        if closure > 0.01 then
          fail acc "ledger rows sum to %.3f%% off the traced wall time" (100.0 *. closure);
        if traced.dropped > 0 then fail acc "%d trace events dropped" traced.dropped;
        let metrics = per_layer_metrics ~counts ~plain ~traced in
        let extra =
          ("traced.wall_s", Int64.to_float traced.wall_ns /. 1e9, "s")
          :: ("ledger.closure_pct", 100.0 *. closure, "%")
          :: ("trace.dropped", float_of_int traced.dropped, "count")
          :: workload_rows ~counts ~traced
        in
        let stem =
          write_trace_files ~workload ~seed
            ~rows:(List.map (fun (n, v) -> (n, v, unit_of n)) metrics @ extra)
            traced
        in
        List.iter (fun (n, v, u) -> note "%-34s %14.6g %s" n v u) extra;
        note "ledger: %s.ledger.tsv, trace: %s.trace.json" stem stem;
        metrics
      end
    with Run_timeout ->
      note "stopped: time budget exhausted";
      []
  in
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  let names = List.map (fun (m : Catalog.metric) -> m.name) catalog in
  if metrics <> [] && List.map fst metrics <> names then
    fail acc "the metrics computed differ from the catalog's";
  Proc.rm_rf work;
  {
    workload;
    seed;
    metrics;
    attempted = max 1 acc.attempted;
    failed = acc.failed;
    notes = List.rev !notes;
  }

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit_)
          metrics))

let print_run r =
  Printf.printf "== %s  seed %d  %s\n" r.workload r.seed (host_line ());
  List.iter (fun s -> Printf.printf "  %s\n" s) r.notes;
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %14.6g %s\n" name v (unit_of name))
    r.metrics;
  Printf.printf "  error_rate %d/%d\n%!" r.failed r.attempted

let record file results =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  List.iter
    (fun r ->
      List.iter
        (fun (name, v) -> Printf.fprintf oc "%s\t%d\t%s\t%.17g\n" r.workload r.seed name v)
        r.metrics)
    results;
  close_out oc

(* ---- --compare ---- *)

let read_records file =
  List.filter_map
    (function
      | [ w; _; name; v ] -> Option.map (fun v -> (w, name, v)) (float_of_string_opt v)
      | _ -> None)
    (Proc.records_of_string (Proc.read_file file))

(* One row of verdicts per workload, then the numbers behind them;
   exits 1 if anything regressed. *)
let compare_files a b =
  let ra = read_records a and rb = read_records b in
  let values rs w name =
    List.filter_map (fun (w', n, v) -> if w' = w && n = name then Some v else None) rs
  in
  (* Each metric with its runs on both sides, where both have some. *)
  let pairs w =
    List.map
      (fun (m : Catalog.metric) ->
        match (values ra w m.name, values rb w m.name) with
        | [], _ | _, [] -> (m, None)
        | parent, change -> (m, Some (parent, change)))
      Catalog.end_to_end
  in
  let column s = Printf.sprintf "%-13s" s in
  let regressed = ref false in
  Printf.printf "%-14s %s\n" "workload"
    (String.concat " "
       (List.map (fun (m : Catalog.metric) -> column m.name) Catalog.end_to_end));
  List.iter
    (fun (w, _) ->
      let row = pairs w in
      if List.exists (fun (_, p) -> p <> None) row then
        Printf.printf "%-14s %s\n" w
          (String.concat " "
             (List.map
                (fun ((m : Catalog.metric), p) ->
                  match p with
                  | None -> column "-"
                  | Some (parent, change) ->
                      let v = Stats.verdict ~better:m.better ~bound:m.bound ~parent ~change in
                      if v = Stats.Regressed then regressed := true;
                      column (Stats.string_of_verdict v))
                row)))
    Catalog.workloads;
  print_newline ();
  List.iter
    (fun (w, _) ->
      List.iter
        (fun ((m : Catalog.metric), p) ->
          match p with
          | None -> ()
          | Some (parent, change) ->
              let ma = Stats.median parent and mb = Stats.median change in
              Printf.printf
                "  %-13s %-13s A %.6g (spread %.1f%%, n=%d)  B %.6g (spread \
                 %.1f%%, n=%d)  worse by %+.1f%%  bound %.0f%%\n"
                w m.name ma
                (100.0 *. Stats.rel_spread parent)
                (List.length parent) mb
                (100.0 *. Stats.rel_spread change)
                (List.length change)
                (100.0 *. Stats.worsening ~better:m.better ~parent:ma ~change:mb)
                (100.0 *. m.bound))
        (pairs w))
    Catalog.workloads;
  if !regressed then exit 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W]... [--seed S] [--seconds T] [--trace [0|1]] \
     [--repeat R] [--record FILE]\n\
    \       main.exe --compare A B";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workloads = ref [] and seed = ref 42 and seconds = ref default_seconds in
  let trace = ref false and repeat = ref None and record_to = ref None in
  let child = ref None and phase = ref "" and item = ref 0 and jobs = ref 1 in
  let traced = ref false and out = ref "" and worker = ref None and compare = ref None in
  let int_arg s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workloads := !workloads @ [ w ]; parse rest
    | "--seed" :: s :: rest -> seed := int_arg s; parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--repeat" :: r :: rest -> repeat := Some (int_arg r); parse rest
    | "--record" :: f :: rest -> record_to := Some f; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | "--child" :: w :: rest -> child := Some w; parse rest
    | "--phase" :: p :: rest -> phase := p; parse rest
    | "--item" :: i :: rest -> item := int_arg i; parse rest
    | "--jobs" :: j :: rest -> jobs := int_arg j; parse rest
    | "--traced" :: rest -> traced := true; parse rest
    | "--out" :: f :: rest -> out := f; parse rest
    | "--worker" :: d :: rest -> worker := Some d; parse rest
    | _ -> usage ()
  in
  parse args;
  match (!worker, !child, !compare) with
  | Some dir, _, _ -> Child.worker ~dir ~out:!out
  | None, Some workload, _ ->
      Child.phase ~workload ~phase:!phase ~item:!item ~seed:!seed ~jobs:!jobs
        ~traced:!traced ~out:!out
  | None, None, Some (a, b) -> compare_files a b
  | None, None, None ->
      let names = List.map fst Catalog.workloads in
      List.iter
        (fun w ->
          if not (List.mem w names) then begin
            prerr_endline ("unknown workload " ^ w);
            usage ()
          end)
        !workloads;
      Gat_util.Cache_dir.ensure out_dir;
      let single = List.length !workloads = 1 in
      let selected = if !workloads = [] then names else !workloads in
      let repeat = Option.value !repeat ~default:(if single then 1 else 5) in
      if repeat < 1 then usage ();
      (* Repetitions rotate the workload order and take consecutive
         seeds. *)
      let results =
        List.concat
          (List.init repeat (fun rep ->
               let k = rep mod List.length selected in
               let order =
                 List.filteri (fun i _ -> i >= k) selected
                 @ List.filteri (fun i _ -> i < k) selected
               in
               List.map
                 (fun workload ->
                   let r =
                     run_workload ~workload ~seed:(!seed + rep) ~seconds:!seconds ~trace:!trace
                   in
                   print_run r;
                   r)
                 order))
      in
      Option.iter (fun f -> record f results) !record_to;
      let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
      let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
      let metrics =
        if single && repeat = 1 then
          List.map (fun (n, v) -> (n, unit_of n, v)) (List.hd results).metrics
        else begin
          Printf.printf "\n%-13s %-24s %-6s %14s %14s %14s %3s\n" "workload" "metric" "unit"
            "median" "q1" "q3" "n";
          List.concat_map
            (fun w ->
              let rs = List.filter (fun r -> r.workload = w) results in
              let names = match rs with r :: _ -> List.map fst r.metrics | [] -> [] in
              List.map
                (fun name ->
                  let xs = List.filter_map (fun r -> List.assoc_opt name r.metrics) rs in
                  let q1, med, q3 = Stats.quartiles xs in
                  Printf.printf "%-13s %-24s %-6s %14.6g %14.6g %14.6g %3d\n" w name
                    (unit_of name) med q1 q3 (List.length xs);
                  (name ^ "@" ^ w, unit_of name, med))
                names)
            selected
        end
      in
      let complete =
        List.for_all
          (fun r ->
            r.metrics <> [] && List.for_all (fun (_, v) -> Float.is_finite v) r.metrics)
          results
      in
      let correct = failed = 0 && complete in
      print_endline (json_line ~correct ~attempted ~failed metrics);
      exit (if correct then 0 else 1)
