(* What one child process does: a set-up, a pass of a workload, one
   render of the reproduce workload, the engine sample check, or a
   fleet worker.  A child records its operations, counter deltas, peak
   memory and (traced) its ledger into a result file for the
   orchestrator; output checks run after the measured work, with the
   persistent stores off, so they neither cost nor hit what was
   measured. *)

open Gat_bench_e2e
open Gat_tuner

type recorder = {
  buf : Buffer.t;
  seed : int;
  traced : bool;
  mutable attempts : int;
  mutable op_ns : int64;  (** Time inside measured operations. *)
  mutable checks : (unit -> unit) list;  (** Deferred output checks, newest first. *)
  mutable events : Gat_util.Trace.event list list;  (** Harvested per operation (traced). *)
  mutable dropped : int;
  mutable foreign : Gat_util.Telemetry.snapshot list;  (** Fleet workers' (traced). *)
  mutable worker_rss_kb : int;
}

let emit r fields = Buffer.add_string r.buf (Proc.record_line fields)

let one_line s = String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

(* A failure is recorded for the orchestrator, which prints it. *)
let fail r fmt = Printf.ksprintf (fun msg -> emit r [ "fail"; one_line msg ]) fmt

let defer r f = r.checks <- f :: r.checks

let span_args (it : Scenario.item) =
  [
    ("cls", Gat_util.Trace.S (Scenario.string_of_cls it.cls));
    ("item", Gat_util.Trace.S it.label);
  ]

(* Traced children move each operation's spans out of the trace
   buffers as it ends: a sharded sweep's telemetry snapshots carry the
   whole buffer on every flush, and must not carry earlier operations'
   spans as well. *)
let harvest r =
  if r.traced then begin
    r.events <- Gat_util.Trace.events () :: r.events;
    r.dropped <- r.dropped + Gat_util.Trace.dropped ();
    Gat_util.Trace.clear ()
  end

(* One measured operation; a raised exception is a failed operation and
   contributes no latency. *)
let op r (it : Scenario.item) f =
  r.attempts <- r.attempts + 1;
  let t0 = Proc.now_ns () in
  let result =
    match Gat_util.Trace.span "bench.op" ~args:(span_args it) f with
    | v -> Ok v
    | exception e -> Error e
  in
  let ns = Int64.sub (Proc.now_ns ()) t0 in
  r.op_ns <- Int64.add r.op_ns ns;
  harvest r;
  match result with
  | Ok v ->
      emit r
        [
          "op";
          Scenario.string_of_cls it.cls;
          Printf.sprintf "%.17g" (Int64.to_float ns /. 1e6);
          it.label;
        ];
      Some v
  | Error e ->
      fail r "%s: %s" it.label (Printexc.to_string e);
      None

(* Every call into the program, under the layer that owns it. *)
let call ~layer api f =
  Gat_util.Trace.span "bench.call"
    ~args:[ ("api", Gat_util.Trace.S api); ("layer", Gat_util.Trace.S layer) ]
    f

(* ---- output checks ---- *)

(* A reported time must be what the trial protocol gives the variant
   compiled from scratch, seeded by its own point seed. *)
let check_time r (it : Scenario.item) params reported =
  r.attempts <- r.attempts + 1;
  let where = it.label ^ " " ^ Gat_compiler.Params.to_string params in
  match Gat_compiler.Driver.compile it.kernel it.gpu params with
  | Error e -> fail r "%s: recompile failed: %s" where e
  | Ok c ->
      let rng =
        Gat_util.Rng.create (Tuner.point_seed it.kernel it.gpu ~seed:r.seed params)
      in
      let t = Measure.time_of c ~n:it.n ~rng in
      if Int64.bits_of_float t <> Int64.bits_of_float reported then
        fail r "%s: reported %h, recomputed %h" where reported t

let check_report r (it : Scenario.item) ~samples (report : Tuner.report) =
  List.iter
    (fun f -> fail r "%s: %s" it.label (Variant.failure_summary f))
    report.Tuner.failures;
  let variants = Array.of_list report.Tuner.variants in
  if Array.length variants = 0 then fail r "%s: no valid variant" it.label
  else begin
    let rs = Scenario.rng r.seed it.label in
    for _ = 1 to samples do
      let v = Gat_util.Rng.choose rs variants in
      defer r (fun () -> check_time r it v.Variant.params v.Variant.time_ms)
    done
  end

(* ---- workloads ---- *)

let render r (it : Scenario.item) =
  match
    op r it (fun () ->
        let light =
          List.map
            (fun id ->
              match Gat_report.Experiments.find id with
              | Some e -> call ~layer:"experiments.rest" ("render." ^ id) e.render
              | None -> invalid_arg ("unknown report " ^ id))
            Scenario.light_reports
        in
        String.concat "" light
        ^ call ~layer:"experiments.fig4" "render.fig4" (fun () ->
              Gat_report.Fig4.render_one it.kernel it.gpu))
  with
  | Some text -> emit r [ "digest"; it.label; Scenario.md5 text ]
  | None -> ()

let tune r (it : Scenario.item) =
  (* Every request starts like a fresh CLI run: nothing in memory, the
     persistent stores shared. *)
  Tuner.clear_cache ();
  match
    op r it (fun () ->
        call ~layer:"tuner" "autotune" (fun () ->
            Tuner.autotune ~strategy:it.strategy it.kernel it.gpu ~n:it.n ~seed:r.seed))
  with
  | None -> ()
  | Some o -> (
      emit r
        [
          "outcome";
          it.label;
          (match o.Search.best_params with
          | Some p -> Gat_compiler.Params.to_string p
          | None -> "-");
          Printf.sprintf "%h" o.Search.best_time;
          string_of_int o.Search.evaluations;
        ];
      match o.Search.best_params with
      | Some p -> defer r (fun () -> check_time r it p o.Search.best_time)
      | None -> fail r "%s: no valid variant" it.label)

let resweep r ~jobs (it : Scenario.item) =
  (* The in-process sweep cache is keyed by kernel name, and an edited
     kernel keeps its name. *)
  Tuner.clear_cache ();
  match
    op r it (fun () ->
        call ~layer:"tuner" "sweep_report" (fun () ->
            Tuner.sweep_report ~jobs it.kernel it.gpu ~n:it.n ~seed:r.seed))
  with
  | Some report -> check_report r it ~samples:5 report
  | None -> ()

let reap r ~label (out, pid) =
  match Proc.wait ~deadline:(Proc.deadline_in 60.0) pid with
  | Unix.WEXITED 0 -> (
      match Proc.records_of_string (Proc.read_file out) with
      | [ [ "rss_kb"; kb ] ] ->
          r.worker_rss_kb <- max r.worker_rss_kb (int_of_string kb)
      | _ -> fail r "%s: worker left no result" label
      | exception Sys_error e -> fail r "%s: worker left no result: %s" label e)
  | _ -> fail r "%s: worker exited abnormally" label
  | exception Proc.Timeout -> fail r "%s: worker timed out" label

let fleet r ~traced ~out (it : Scenario.item) =
  Tuner.clear_cache ();
  let dir = Shard.default_dir Scenario.space it.kernel it.gpu ~n:it.n ~seed:r.seed in
  let workers = ref [] in
  let report =
    op r it (fun () ->
        (* The manifest goes first so the workers can attach at once;
           the coordinator adopts it. *)
        Gat_util.Cache_dir.ensure dir;
        Shard.write_manifest ~dir
          {
            Shard.kernel = it.kernel.Gat_ir.Kernel.name;
            gpu = it.gpu.Gat_arch.Gpu.name;
            n = it.n;
            seed = r.seed;
            ttl = Shard.default_ttl;
            space = Scenario.space;
            ranges =
              Shard.plan ~total:(Space.cardinality Scenario.space) ~shards:Scenario.shards;
          };
        workers :=
          List.init (max 1 (Proc.host_jobs - 1)) (fun i ->
              let o = Printf.sprintf "%s.w%d" out i in
              (o, Proc.spawn ~env:(Unix.environment ()) [ "--worker"; dir; "--out"; o ]));
        call ~layer:"shard" "coordinate" (fun () ->
            Shard.coordinate ~jobs:1 ~shards:Scenario.shards ~dir Scenario.space
              it.kernel it.gpu ~n:it.n ~seed:r.seed))
  in
  (* Workers notice the coordinator's done marker on their next poll;
     the result was already delivered, so reaping them is not timed. *)
  List.iter (reap r ~label:it.label) !workers;
  if traced then begin
    let snaps, _ = Gat_util.Telemetry.load_dir dir in
    r.foreign <-
      r.foreign
      @ List.filter
          (fun s -> s.Gat_util.Telemetry.pid <> Unix.getpid ())
          (Gat_util.Telemetry.dedupe snaps)
  end;
  (* The coordination left its telemetry session (and with it span
     recording) on. *)
  Gat_util.Telemetry.disable ();
  if not traced then Gat_util.Trace.clear ();
  match report with
  | Some report ->
      emit r [ "digest"; it.label; Scenario.report_digest report ];
      check_report r it ~samples:8 report
  | None -> ()

(* Engine.run against its list-based specification, bitwise, on
   seeded sample points of the workload's kernels and GPUs. *)
let engine_check r ~workload =
  let items = Array.of_list (Scenario.plan workload r.seed) in
  let points = Array.of_list (Space.points Scenario.space) in
  let rs = Scenario.rng r.seed "engine-check" in
  let checked = ref 0 and tries = ref 0 in
  while !checked < 64 && !tries < 4096 do
    incr tries;
    let it = Gat_util.Rng.choose rs items in
    let params = Gat_util.Rng.choose rs points in
    let n = Scenario.pick rs (Scenario.sizes it.kernel) in
    match Gat_compiler.Driver.compile it.kernel it.gpu params with
    | Error _ -> () (* an invalid variant: nothing to simulate *)
    | Ok c ->
        incr checked;
        r.attempts <- r.attempts + 1;
        let bits x = Marshal.to_string x [ Marshal.No_sharing ] in
        if bits (Gat_sim.Engine.run c ~n) <> bits (Gat_sim.Engine.run_reference c ~n)
        then
          fail r "Engine.run differs from run_reference: %s %s n=%d" it.label
            (Gat_compiler.Params.to_string params) n
  done;
  if !checked < 64 then fail r "only %d valid sample points" !checked

(* Set-up: derive the workload's inputs from the seed and make sure
   every kernel of them compiles on its GPU before anything is
   measured, so no measured operation fails on a bad input.  Nothing is
   written to the store: file-system latency on a shared host is far
   noisier than the compiles. *)
let setup r ~workload =
  Artifact_store.set_enabled false;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (it : Scenario.item) ->
      let key = (Gat_ir.Kernel.to_string it.kernel, it.gpu.Gat_arch.Gpu.name) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        r.attempts <- r.attempts + 1;
        match Gat_compiler.Driver.compile it.kernel it.gpu Gat_compiler.Params.default with
        | Ok _ -> ()
        | Error e -> fail r "%s: does not compile: %s" it.label e
      end)
    (Scenario.plan workload r.seed)

(* ---- the phase runner ---- *)

let process_header ~pid ~mono ~wall ~dropped =
  Proc.record_line
    [
      "process";
      Unix.gethostname ();
      string_of_int pid;
      Int64.to_string mono;
      Int64.to_string wall;
      string_of_int dropped;
    ]

let deltas before after =
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt name before) in
      if d = 0 then None else Some (name, d))
    after

(* Runs [body] and writes the result file.  The ledger's roots are the
   operations' spans, so its wall time is the operations' time; what
   the child does between operations (reaping fleet workers) is the
   benchmark's own bookkeeping, in neither. *)
let run ~out ~seed ~traced body =
  let r =
    {
      buf = Buffer.create 4096;
      seed;
      traced;
      attempts = 0;
      op_ns = 0L;
      checks = [];
      events = [];
      dropped = 0;
      foreign = [];
      worker_rss_kb = 0;
    }
  in
  if traced then Gat_util.Trace.enable ();
  let counters0 = Gat_util.Metrics.counters_snapshot () in
  let timers0 = Gat_util.Metrics.timers_snapshot () in
  let anchor_mono = Proc.now_ns () in
  let anchor_wall = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  body r;
  emit r [ "wall_ns"; Int64.to_string r.op_ns ];
  emit r [ "rss_kb"; string_of_int (max (Proc.peak_rss_kb ()) r.worker_rss_kb) ];
  List.iter
    (fun (name, d) -> emit r [ "counter"; name; string_of_int d ])
    (deltas counters0 (Gat_util.Metrics.counters_snapshot ()));
  List.iter
    (fun (name, _, s) ->
      let s0 =
        match List.find_opt (fun (n, _, _) -> n = name) timers0 with
        | Some (_, _, s0) -> s0
        | None -> 0.0
      in
      if s > s0 then emit r [ "timer"; name; Printf.sprintf "%.17g" (s -. s0) ])
    (Gat_util.Metrics.timers_snapshot ());
  if traced then begin
    Gat_util.Trace.disable ();
    harvest r;
    let events = List.concat (List.rev r.events) in
    let ledger = Ledger.of_events events in
    List.iter (fun (l, ns) -> emit r [ "layer"; l; Int64.to_string ns ]) ledger.Ledger.rows;
    let dropped = r.dropped in
    emit r [ "dropped"; string_of_int dropped ];
    let b = Buffer.create (1 lsl 20) in
    Buffer.add_string b
      (process_header ~pid:(Unix.getpid ()) ~mono:anchor_mono ~wall:anchor_wall ~dropped);
    Buffer.add_string b (Gat_util.Trace.serialize_events events);
    List.iter
      (fun (s : Gat_util.Telemetry.snapshot) ->
        let w = Ledger.of_events s.events in
        List.iter (fun (l, ns) -> emit r [ "worker_layer"; l; Int64.to_string ns ]) w.Ledger.rows;
        emit r [ "worker_wall_ns"; Int64.to_string w.Ledger.wall_ns ];
        emit r [ "dropped"; string_of_int s.dropped ];
        Buffer.add_string b
          (process_header ~pid:s.pid ~mono:s.anchor_mono_ns ~wall:s.anchor_wall_ns
             ~dropped:s.dropped);
        Buffer.add_string b (Gat_util.Trace.serialize_events s.events))
      r.foreign;
    Proc.write_file (out ^ ".events") (Buffer.contents b)
  end;
  (* Output checks: independent of the stores the measured work used. *)
  Artifact_store.set_enabled false;
  Tuner.clear_cache ();
  List.iter (fun f -> f ()) (List.rev r.checks);
  emit r [ "attempts"; string_of_int r.attempts ];
  Proc.write_file out (Buffer.contents r.buf)

let phase ~workload ~phase ~item ~seed ~jobs ~traced ~out =
  run ~out ~seed ~traced (fun r ->
      match phase with
      | "setup" -> setup r ~workload
      | "check" ->
          Artifact_store.set_enabled false;
          engine_check r ~workload
      | "render" -> render r (List.nth (Scenario.plan workload seed) item)
      | "pass" ->
          let items = Scenario.plan workload seed in
          List.iter
            (match workload with
            | "static-tune" -> tune r
            | "edit-resweep" -> resweep r ~jobs
            | "fleet-sweep" -> fleet r ~traced ~out
            | w -> invalid_arg ("no in-process pass for workload " ^ w))
            items
      | p -> invalid_arg ("unknown phase " ^ p))

(* A fleet worker: attach to the coordination directory, evaluate
   shards until none is left, report peak memory. *)
let worker ~dir ~out =
  match Shard.read_manifest dir with
  | None -> exit 3
  | Some m -> (
      match
        ( Gat_workloads.Workloads.find m.Shard.kernel,
          Gat_arch.Gpu.of_name m.Shard.gpu )
      with
      | Some kernel, Some gpu ->
          ignore (Shard.work ~jobs:1 ~dir m ~kernel ~gpu ());
          Proc.write_file out (Proc.record_line [ "rss_kb"; string_of_int (Proc.peak_rss_kb ()) ])
      | _ -> exit 3)
