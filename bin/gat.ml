(* gat — GPU-kernel autotuning toolkit CLI.

   Subcommands mirror the paper's workflow: compile-and-analyze a
   kernel statically, inspect occupancy, get parameter suggestions,
   simulate a launch, autotune with any search strategy, and regenerate
   the paper's tables and figures. *)

open Cmdliner

let kernel_conv =
  let parse s =
    match Gat_workloads.Workloads.find s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown kernel %S (expected one of: %s)" s
               (String.concat ", "
                  (List.map
                     (fun k -> k.Gat_ir.Kernel.name)
                     Gat_workloads.Workloads.all))))
  in
  let print fmt (k : Gat_ir.Kernel.t) =
    Format.pp_print_string fmt k.Gat_ir.Kernel.name
  in
  Arg.conv (parse, print)

let gpu_conv =
  let parse s =
    match Gat_arch.Gpu.of_name s with
    | Some g -> Ok g
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown GPU %S (expected a device or family name: %s)" s
               (String.concat ", "
                  (List.map (fun g -> g.Gat_arch.Gpu.name) Gat_arch.Gpu.all))))
  in
  let print fmt (g : Gat_arch.Gpu.t) =
    Format.pp_print_string fmt g.Gat_arch.Gpu.name
  in
  Arg.conv (parse, print)

let kernel_arg =
  Arg.(required & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL")

let gpu_arg =
  Arg.(
    value
    & opt gpu_conv Gat_arch.Gpu.k20
    & info [ "a"; "arch"; "gpu" ] ~docv:"GPU"
        ~doc:"Target device (name or family).")

let n_arg =
  Arg.(
    value & opt (some int) None
    & info [ "n"; "size" ] ~docv:"N" ~doc:"Problem size (default: the paper's middle input size).")

let size_of kernel n =
  Option.value ~default:(Gat_workloads.Workloads.default_size kernel) n

let params_term =
  let tc =
    Arg.(value & opt int 128 & info [ "tc"; "threads" ] ~docv:"TC" ~doc:"Threads per block.")
  in
  let bc =
    Arg.(value & opt int 96 & info [ "bc"; "blocks" ] ~docv:"BC" ~doc:"Thread blocks.")
  in
  let uif =
    Arg.(value & opt int 1 & info [ "u"; "unroll" ] ~docv:"UIF" ~doc:"Unroll factor.")
  in
  let pl =
    Arg.(value & opt int 16 & info [ "pl" ] ~docv:"KB" ~doc:"Preferred L1 size (16 or 48).")
  in
  let sc = Arg.(value & opt int 1 & info [ "sc" ] ~docv:"SC" ~doc:"Staging depth.") in
  let fm = Arg.(value & flag & info [ "fast-math" ] ~doc:"Compile with -use_fast_math.") in
  let make tc bc uif pl sc fm =
    Gat_compiler.Params.make ~threads_per_block:tc ~block_count:bc ~unroll:uif
      ~l1_pref_kb:pl ~staging:sc ~fast_math:fm ()
  in
  Term.(const make $ tc $ bc $ uif $ pl $ sc $ fm)

let compile_or_die kernel gpu params =
  match Gat_compiler.Driver.compile kernel gpu params with
  | Ok c -> c
  | Error e -> Gat_util.Error.fail Compile e

(* ---- analyze ---- *)

let analyze kernel gpu params n =
  let c = compile_or_die kernel gpu params in
  let n = size_of kernel n in
  print_string (Gat_compiler.Ptxas_info.render c.Gat_compiler.Driver.log);
  let program = c.Gat_compiler.Driver.program in
  let static_mix = Gat_core.Imix.static_of_program program in
  let dyn_est = Gat_core.Imix.estimate_dynamic program ~n in
  Format.printf "@.Static instruction mix:@.%a@." Gat_core.Imix.pp static_mix;
  Printf.printf "\nComputational intensity (static): %.2f\n"
    (Gat_core.Imix.intensity static_mix);
  let mem_factor = Gat_tuner.Static_search.transaction_factor c in
  Printf.printf
    "Effective intensity (transaction-weighted, %.2fx mem): %.2f\n"
    mem_factor
    (Gat_core.Rules.effective_intensity static_mix
       ~mem_transaction_factor:mem_factor);
  let cfg = Gat_cfg.Cfg.of_program program in
  let div = Gat_cfg.Divergence.compute cfg in
  Printf.printf "Divergent branches: %d/%d (fraction %.2f)\n"
    (List.length (Gat_cfg.Divergence.divergent_branches div))
    (Gat_cfg.Divergence.branch_count div)
    (Gat_cfg.Divergence.divergent_fraction div);
  Printf.printf "Eq. 6 cost at N=%d: %.1f\n" n (Gat_core.Predict.cost gpu dyn_est);
  print_string "\nPipeline utilization:\n";
  print_string (Gat_core.Pipeline_util.render (Gat_core.Pipeline_util.of_mix gpu dyn_est));
  let occ =
    Gat_core.Occupancy.calculate gpu
      (Gat_core.Occupancy.input
         ~regs_per_thread:c.Gat_compiler.Driver.log.Gat_compiler.Ptxas_info.registers
         ~smem_per_block:(Gat_isa.Program.smem_per_block program)
         ~threads_per_block:params.Gat_compiler.Params.threads_per_block ())
  in
  Printf.printf
    "\nOccupancy: %.2f (%d blocks/SM, %d warps; limited by %s)\n"
    occ.Gat_core.Occupancy.occupancy occ.Gat_core.Occupancy.active_blocks
    occ.Gat_core.Occupancy.active_warps
    (Gat_core.Occupancy.limiter_name occ.Gat_core.Occupancy.limiter)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Static analysis of a kernel variant (no execution).")
    Term.(const analyze $ kernel_arg $ gpu_arg $ params_term $ n_arg)

(* ---- disasm ---- *)

let disasm kernel gpu params ptx =
  let c = compile_or_die kernel gpu params in
  if ptx then print_string (Gat_isa.Ptx.program c.Gat_compiler.Driver.ptx)
  else print_string (Gat_isa.Disasm.program c.Gat_compiler.Driver.program)

let disasm_cmd =
  let ptx =
    Arg.(
      value & flag
      & info [ "ptx" ]
          ~doc:"Print the virtual-register PTX form instead of the final code.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Compile a variant and print its instruction listing.")
    Term.(const disasm $ kernel_arg $ gpu_arg $ params_term $ ptx)

(* ---- cfg ---- *)

let cfg kernel gpu params =
  let c = compile_or_die kernel gpu params in
  let graph = Gat_cfg.Cfg.of_program c.Gat_compiler.Driver.program in
  print_string (Gat_cfg.Dot.render graph)

let cfg_cmd =
  Cmd.v
    (Cmd.info "cfg" ~doc:"Emit the variant's control-flow graph as Graphviz DOT.")
    Term.(const cfg $ kernel_arg $ gpu_arg $ params_term)

(* ---- lint ---- *)

let lint kernel gpu params strict =
  let c = compile_or_die kernel gpu params in
  let log = c.Gat_compiler.Driver.log in
  let r =
    Gat_analysis.Lint.report ~gpu
      ~threads_per_block:params.Gat_compiler.Params.threads_per_block
      ~regs_per_thread:log.Gat_compiler.Ptxas_info.registers
      ~spill_loads:log.Gat_compiler.Ptxas_info.spill_loads
      ~spill_stores:log.Gat_compiler.Ptxas_info.spill_stores
      ~stack_frame:log.Gat_compiler.Ptxas_info.stack_frame
      c.Gat_compiler.Driver.program
  in
  print_string r.Gat_analysis.Lint.text;
  if strict && not (Gat_analysis.Lint.clean r.Gat_analysis.Lint.findings) then (
    (* The report is already on stdout; the strict gate names the
       blocking findings on stderr and exits with the Verify code. *)
    flush stdout;
    Gat_util.Error.failf Verify "lint --strict: %s"
      (Gat_analysis.Lint.findings_to_string r.Gat_analysis.Lint.findings))

let lint_cmd =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit with the verify code (7) when the report contains \
             shared-memory races, divergent barriers, or register \
             spills.  For CI gates; the report itself is unchanged.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics: uncoalesced accesses, bank conflicts, \
          divergence, spills, safety verdict, occupancy limiter.")
    Term.(const lint $ kernel_arg $ gpu_arg $ params_term $ strict)

(* ---- verify ---- *)

let read_file path =
  match open_in path with
  | exception Sys_error e -> Gat_util.Error.fail Io e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let verify kernel isa gpu params =
  let report =
    match (isa, kernel) with
    | Some path, _ -> (
        match Gat_isa.Parser.program (read_file path) with
        | Error e ->
            Gat_util.Error.failf Parse "%s: %s" path
              (Gat_isa.Parser.error_to_string e)
        | Ok program ->
            Gat_analysis.Verify.run
              ~threads_per_block:params.Gat_compiler.Params.threads_per_block
              program)
    | None, Some kernel ->
        (* Same verdict path as the sweep engine: the memoized verifier
           over the compiled variant's virtual-register program. *)
        Gat_tuner.Tuner.verdict (compile_or_die kernel gpu params)
    | None, None ->
        Gat_util.Error.failf Usage
          ~hint:"gat verify atax, or gat verify --isa listing.sass"
          "verify needs a bundled KERNEL or --isa FILE"
  in
  print_string (Gat_analysis.Verify.render report);
  if not (Gat_analysis.Verify.safe report) then (
    flush stdout;
    Gat_util.Error.failf Verify "%s: %s"
      report.Gat_analysis.Verify.program_name
      (Gat_analysis.Verify.summary report))

let verify_cmd =
  let kernel =
    Arg.(value & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL")
  in
  let isa =
    Arg.(
      value
      & opt (some string) None
      & info [ "isa" ] ~docv:"FILE"
          ~doc:
            "Verify an instruction listing in the $(b,gat disasm) \
             format instead of compiling a bundled kernel; the launch \
             thread count is taken from $(b,--tc).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify a kernel variant's barrier and shared-memory \
          safety: no barrier under thread-dependent control flow, no \
          two threads touching overlapping shared bytes with a write \
          between barriers.  Exit code 7 when unsafe.")
    Term.(const verify $ kernel $ isa $ gpu_arg $ params_term)

(* ---- occupancy ---- *)

let occupancy gpu tc regs smem curves =
  let result =
    Gat_core.Occupancy.calculate gpu
      (Gat_core.Occupancy.input ~regs_per_thread:regs ~smem_per_block:smem
         ~threads_per_block:tc ())
  in
  Printf.printf
    "occupancy=%.2f active_blocks=%d active_warps=%d limiter=%s\n\
     (by warps: %d, by registers: %d, by shared memory: %d)\n"
    result.Gat_core.Occupancy.occupancy result.Gat_core.Occupancy.active_blocks
    result.Gat_core.Occupancy.active_warps
    (Gat_core.Occupancy.limiter_name result.Gat_core.Occupancy.limiter)
    result.Gat_core.Occupancy.blocks_by_warps
    result.Gat_core.Occupancy.blocks_by_regs
    result.Gat_core.Occupancy.blocks_by_smem;
  if curves then
    print_string
      (Gat_core.Occupancy_curves.render ~title:"occupancy vs block size"
         ~marker:tc
         (Gat_core.Occupancy_curves.vs_threads gpu ~regs_per_thread:regs
            ~smem_per_block:smem))

let occupancy_cmd =
  let tc = Arg.(value & opt int 128 & info [ "t"; "threads" ] ~docv:"TC") in
  let regs = Arg.(value & opt int 0 & info [ "r"; "regs" ] ~docv:"RU") in
  let smem = Arg.(value & opt int 0 & info [ "s"; "smem" ] ~docv:"BYTES") in
  let curves = Arg.(value & flag & info [ "curves" ] ~doc:"Also print the occupancy curve.") in
  Cmd.v
    (Cmd.info "occupancy" ~doc:"Occupancy calculator (paper Eqs. 1-5).")
    Term.(const occupancy $ gpu_arg $ tc $ regs $ smem $ curves)

(* ---- suggest ---- *)

let suggest kernel gpu =
  let c = compile_or_die kernel gpu Gat_compiler.Params.default in
  let s = Gat_tuner.Static_search.suggestion gpu c in
  Printf.printf "%s on %s: %s\n" kernel.Gat_ir.Kernel.name
    (Gat_arch.Gpu.family gpu)
    (Gat_core.Suggest.row_to_string s)

let suggest_cmd =
  Cmd.v
    (Cmd.info "suggest" ~doc:"Suggested launch parameters (paper Table VII).")
    Term.(const suggest $ kernel_arg $ gpu_arg)

(* ---- tracing ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record compile/simulate/cache/pool spans and write them to \
           $(docv) as Chrome trace-event JSON on exit (open in Perfetto \
           or chrome://tracing).  Results are unaffected.")

let set_trace path = Option.iter Gat_util.Trace.enable_to path

(* Set by the sharded-sweep coordinator: at exit, --trace writes the
   fleet-merged trace (every process's telemetry snapshot) instead of
   this process's own events. *)
let fleet_merge = ref false

(* ---- simulate ---- *)

let simulate kernel gpu params n trace =
  set_trace trace;
  let c = compile_or_die kernel gpu params in
  let n = size_of kernel n in
  let r = Gat_sim.Engine.run c ~n in
  Printf.printf
    "N=%d  time=%.4f ms (%.0f cycles)\n\
     occupancy=%.2f  blocks/SM=%d  waves=%d  bound=%s\n\
     transactions=%.0f  lane_utilization=%.2f\n"
    n r.Gat_sim.Engine.time_ms r.Gat_sim.Engine.cycles
    r.Gat_sim.Engine.occupancy r.Gat_sim.Engine.active_blocks
    r.Gat_sim.Engine.waves
    (match r.Gat_sim.Engine.bound with
    | `Issue -> "issue"
    | `Bandwidth -> "bandwidth"
    | `Latency -> "latency")
    r.Gat_sim.Engine.transactions r.Gat_sim.Engine.lane_utilization

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one variant on the GPU simulator.")
    Term.(
      const simulate $ kernel_arg $ gpu_arg $ params_term $ n_arg $ trace_arg)

(* ---- emulate ---- *)

let emulate kernel gpu params n simt =
  let c = compile_or_die kernel gpu params in
  let n = size_of kernel n in
  let reference = Gat_ir.Eval.run_fresh kernel ~n ~seed:42 in
  if simt then begin
    let arrays, stats = Gat_emu.Simt.run_fresh c ~n ~seed:42 in
    let diff = Gat_ir.Eval.max_abs_diff reference arrays in
    Printf.printf
      "SIMT-executed %d warps, %.0f active-lane instructions\n\
       max deviation vs reference interpreter: %g\n\
       (nonzero deviations on atax/bicg/matvec2d are their cross-thread\n\
       accumulation race, which lock-step execution exposes)\n\
       reconvergence stack depth: %d\n\nwarp-level block issues (avg active lanes):\n"
      stats.Gat_emu.Simt.warps stats.Gat_emu.Simt.thread_instructions diff
      stats.Gat_emu.Simt.max_stack_depth;
    List.iter
      (fun (label, count) ->
        Printf.printf "  %-8s %10d  (%.2f)\n" label count
          (Gat_emu.Simt.avg_lanes stats label))
      stats.Gat_emu.Simt.warp_issues;
    exit 0
  end;
  let arrays, stats = Gat_emu.Emulator.run_fresh c ~n ~seed:42 in
  let diff = Gat_ir.Eval.max_abs_diff reference arrays in
  Printf.printf
    "emulated %d threads, %.0f instructions (%.1f per thread)\n\
     max deviation vs reference interpreter: %g\n\
     local memory per thread: %d bytes\n\nexecuted instruction mix:\n"
    stats.Gat_emu.Emulator.threads stats.Gat_emu.Emulator.instructions
    (stats.Gat_emu.Emulator.instructions /. float_of_int stats.Gat_emu.Emulator.threads)
    diff stats.Gat_emu.Emulator.max_local_bytes;
  List.iter
    (fun (cat, count) ->
      Printf.printf "  %-14s %12.0f\n" (Gat_arch.Throughput.category_name cat) count)
    stats.Gat_emu.Emulator.per_category;
  print_endline "\nper-block executions:";
  List.iter
    (fun (label, count) -> Printf.printf "  %-8s %10d\n" label count)
    stats.Gat_emu.Emulator.per_block

let emulate_cmd =
  let simt =
    Arg.(
      value & flag
      & info [ "simt" ]
          ~doc:
            "Execute warp-by-warp with an active mask and reconvergence \
             stack instead of thread-by-thread.")
  in
  Cmd.v
    (Cmd.info "emulate"
       ~doc:
         "Execute a variant on the functional ISA emulator and validate it \
          against the reference interpreter.")
    Term.(const emulate $ kernel_arg $ gpu_arg $ params_term $ n_arg $ simt)

(* ---- parse ---- *)

let parse_file path gpu tune seed =
  match Gat_ir.Source.parse (read_file path) with
  | Error e ->
      Gat_util.Error.failf Parse "%s: %s" path
        (Gat_ir.Source.error_to_string e)
  | Ok parsed ->
      let kernel = parsed.Gat_ir.Source.kernel in
      print_string (Gat_ir.Kernel.to_string kernel);
      let space =
        match parsed.Gat_ir.Source.spec with
        | Some spec ->
            let space = Gat_tuner.Space.of_spec spec in
            Printf.printf "\ntuning annotation: %s (%d points)\n"
              (Gat_tuner.Space.to_string space)
              (Gat_tuner.Space.cardinality space);
            space
        | None ->
            print_endline "\nno tuning annotation; using the paper's space";
            Gat_tuner.Space.paper
      in
      let c = compile_or_die kernel gpu Gat_compiler.Params.default in
      let suggestion = Gat_tuner.Static_search.suggestion gpu c in
      Printf.printf "static analysis on %s: %s\n" (Gat_arch.Gpu.family gpu)
        (Gat_core.Suggest.row_to_string suggestion);
      if tune then begin
        let n = 512 in
        let outcome =
          Gat_tuner.Tuner.autotune ~space ~strategy:Gat_tuner.Tuner.Static_rules
            kernel gpu ~n ~seed
        in
        match outcome.Gat_tuner.Search.best_params with
        | Some params ->
            Printf.printf
              "autotuned (static+rules, N=%d): %s (%.4f ms, %d evaluations)\n"
              n
              (Gat_compiler.Params.to_string params)
              outcome.Gat_tuner.Search.best_time
              outcome.Gat_tuner.Search.evaluations
        | None -> print_endline "autotuning found no valid variant"
      end

let parse_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let tune =
    Arg.(
      value & flag
      & info [ "tune" ] ~doc:"Also autotune over the file's annotation space.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Parse an annotated kernel source file, analyze it statically, and \
          optionally autotune it over its own annotation space.")
    Term.(const parse_file $ path $ gpu_arg $ tune $ seed)

(* ---- dynamics ---- *)

let dynamics kernel gpu params n =
  let c = compile_or_die kernel gpu params in
  let n = size_of kernel n in
  let t = Gat_emu.Dynamic_analysis.analyze c ~n ~seed:42 in
  Printf.printf
    "dynamic analysis of %s on %s at N=%d (%d threads emulated)\n\n"
    kernel.Gat_ir.Kernel.name (Gat_arch.Gpu.family gpu) n
    t.Gat_emu.Dynamic_analysis.stats.Gat_emu.Emulator.threads;
  print_string (Gat_emu.Dynamic_analysis.render t)

let dynamics_cmd =
  Cmd.v
    (Cmd.info "dynamics"
       ~doc:
         "Dynamic analysis via emulation: branch frequencies and memory \
          reuse distances (the BF/MD boxes of the paper's Fig. 2).")
    Term.(const dynamics $ kernel_arg $ gpu_arg $ params_term $ n_arg)

(* ---- autotune ---- *)

let strategy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "exhaustive" -> Ok Gat_tuner.Tuner.Exhaustive
    | "random" -> Ok (Gat_tuner.Tuner.Random 200)
    | "annealing" -> Ok (Gat_tuner.Tuner.Annealing 300)
    | "genetic" -> Ok (Gat_tuner.Tuner.Genetic (15, 20))
    | "nelder-mead" | "simplex" -> Ok (Gat_tuner.Tuner.Nelder_mead 3)
    | "static" -> Ok Gat_tuner.Tuner.Static
    | "static-rules" | "rules" -> Ok Gat_tuner.Tuner.Static_rules
    | _ ->
        Error
          (`Msg
            "expected one of: exhaustive, random, annealing, genetic, \
             nelder-mead, static, static-rules")
  in
  let print fmt s = Format.pp_print_string fmt (Gat_tuner.Tuner.strategy_name s) in
  Arg.conv (parse, print)

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Skip the persistent caches under $(b,GAT_CACHE_DIR) — the \
           sweep cache and the compile artifact store: neither read \
           nor write them.")

let skip_caches no_cache =
  if no_cache then
    List.iter
      (fun c -> Gat_util.Store.set_enabled c false)
      [ Gat_tuner.Disk_cache.cache; Gat_compiler.Artifacts.cache ]

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the exhaustive sweeps (default: \
           $(b,GAT_JOBS) or the machine's core count).  Results are \
           identical for any job count.")

let set_jobs jobs =
  Option.iter
    (fun j ->
      if j < 1 then
        Gat_util.Error.failf Usage "--jobs must be >= 1 (got %d)" j;
      Gat_util.Pool.set_default_jobs (Some j))
    jobs

let t_autotune = Gat_util.Metrics.timer "cli.autotune"
let t_sweep = Gat_util.Metrics.timer "cli.sweep"

let autotune kernel gpu n seed strategy journal_path no_cache trace =
  skip_caches no_cache;
  set_trace trace;
  let n = size_of kernel n in
  let journal =
    Option.map
      (fun _ ->
        Gat_tuner.Journal.create ~kernel:kernel.Gat_ir.Kernel.name
          ~gpu:gpu.Gat_arch.Gpu.name ~n ~seed
          ~strategy:(Gat_tuner.Tuner.strategy_name strategy))
      journal_path
  in
  let outcome, dt =
    Gat_util.Metrics.timed t_autotune (fun () ->
        Gat_tuner.Tuner.autotune ?journal ~strategy kernel gpu ~n ~seed)
  in
  (match outcome.Gat_tuner.Search.best_params with
  | Some params ->
      Printf.printf "best: %s\nbest time: %.4f ms\n"
        (Gat_compiler.Params.to_string params)
        outcome.Gat_tuner.Search.best_time
  | None -> print_endline "no valid variant found");
  Printf.printf "evaluations: %d (%s wall)\n"
    outcome.Gat_tuner.Search.evaluations
    (Gat_util.Metrics.pp_duration dt);
  match (journal, journal_path) with
  | Some j, Some path ->
      Gat_tuner.Journal.save j path;
      Printf.printf "journal: %d decisions written to %s\n"
        (Gat_tuner.Journal.length j) path
  | _ -> ()

let autotune_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Gat_tuner.Tuner.Static_rules
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Search strategy: exhaustive, random, annealing, genetic, \
             nelder-mead, static, static-rules.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Record every tuning decision to FILE for later replay.")
  in
  Cmd.v
    (Cmd.info "autotune" ~doc:"Autotune a kernel over the paper's search space.")
    Term.(
      const autotune $ kernel_arg $ gpu_arg $ n_arg $ seed $ strategy $ journal
      $ no_cache_arg $ trace_arg)

(* ---- sweep ---- *)

(* The --progress "cache N%" figure: the codegen cache's session hit
   rate, i.e. how often a point's backend work (schedule, regalloc,
   coalescing) was shared across the launch-geometry axes instead of
   redone — the dominant reuse during a sweep. *)
let codegen_cache_hit_pct () =
  let cs = Gat_compiler.Codegen_cache.stats () in
  let looked =
    cs.Gat_compiler.Codegen_cache.hits + cs.Gat_compiler.Codegen_cache.misses
  in
  if looked > 0 then Some (100 * cs.Gat_compiler.Codegen_cache.hits / looked)
  else None

(* The stdout side of a sweep, shared verbatim by the single-process
   and sharded paths: the byte-identity guarantee across job counts,
   resumption and sharding is a guarantee about exactly this output.
   Anything run-shaped (timings, resume notes, coordination hints)
   goes to stderr. *)
let print_sweep_report kernel gpu ~n ~seed ~space ~top
    (report : Gat_tuner.Tuner.report) =
  let variants = report.Gat_tuner.Tuner.variants in
  let failures = report.Gat_tuner.Tuner.failures in
  let unsafe = report.Gat_tuner.Tuner.unsafe in
  Printf.printf "sweep %s on %s (N=%d, seed %d): %d points\n"
    kernel.Gat_ir.Kernel.name gpu.Gat_arch.Gpu.name n seed
    (Gat_tuner.Space.cardinality space);
  Printf.printf "valid variants: %d\nfailed variants: %d\nunsafe variants: %d\n"
    (List.length variants) (List.length failures) (List.length unsafe);
  List.iter
    (fun f -> Printf.printf "  failed: %s\n" (Gat_tuner.Variant.failure_summary f))
    failures;
  List.iter
    (fun u -> Printf.printf "  %s\n" (Gat_tuner.Variant.unsafe_summary u))
    unsafe;
  let ranked = List.sort Gat_tuner.Variant.compare_time variants in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  match ranked with
  | [] -> print_endline "no valid variant found"
  | _ ->
      Printf.printf "top %d variants:\n" (min top (List.length ranked));
      List.iteri
        (fun i v ->
          Printf.printf "  %2d. %s\n" (i + 1) (Gat_tuner.Variant.summary v))
        (take top ranked)

let sweep kernel gpu n seed jobs retries max_failures resume no_checkpoint
    block no_cache top show_progress trace shards coordinator lease_ttl =
  skip_caches no_cache;
  set_trace trace;
  set_jobs jobs;
  if retries < 0 then
    Gat_util.Error.failf Usage "--retries must be >= 0 (got %d)" retries;
  if block < 1 then
    Gat_util.Error.failf Usage "--checkpoint-every must be >= 1 (got %d)" block;
  if lease_ttl <= 0.0 then
    Gat_util.Error.failf Usage "--lease-ttl must be > 0 (got %g)" lease_ttl;
  (match shards with
  | Some k when k < 1 ->
      Gat_util.Error.failf Usage "--shards must be >= 1 (got %d)" k
  | _ -> ());
  Gat_util.Cancel.install ();
  let n = size_of kernel n in
  let space = Gat_tuner.Space.paper in
  let label =
    Printf.sprintf "%s/%s" kernel.Gat_ir.Kernel.name gpu.Gat_arch.Gpu.name
  in
  match (shards, coordinator) with
  | None, None ->
      let progress =
        if not show_progress then None
        else begin
          let p =
            Gat_util.Progress.create ~label
              ~total:(Gat_tuner.Space.cardinality space)
              ()
          in
          Some
            (fun ~done_ ~total ~failures ->
              let render =
                if done_ >= total then Gat_util.Progress.finish
                else Gat_util.Progress.update
              in
              render p ~done_ ~failures
                ?cache_hit_pct:(codegen_cache_hit_pct ())
                ())
        end
      in
      let report, dt =
        Gat_util.Metrics.timed t_sweep (fun () ->
            Gat_tuner.Tuner.sweep_report ~space ~retries ?max_failures
              ~checkpoint:(not no_checkpoint) ~resume ~block ?progress kernel
              gpu ~n ~seed)
      in
      if report.Gat_tuner.Tuner.restored_points > 0 then
        Printf.eprintf "gat: resumed from checkpoint: %d/%d points\n%!"
          report.Gat_tuner.Tuner.restored_points
          (Gat_tuner.Space.cardinality space);
      print_sweep_report kernel gpu ~n ~seed ~space ~top report;
      Printf.eprintf "gat: sweep finished in %s\n%!"
        (Gat_util.Metrics.pp_duration dt)
  | _ ->
      (* Sharded coordination: --shards and/or --coordinator given. *)
      let k = Option.value shards ~default:4 in
      let dir =
        match coordinator with
        | Some d -> d
        | None -> Gat_tuner.Shard.default_dir space kernel gpu ~n ~seed
      in
      Printf.eprintf
        "gat: coordinating %d-shard sweep under %s\n\
         gat: attach workers with: gat sweep-worker %s\n\
         %!"
        k dir dir;
      fleet_merge := true;
      Gat_util.Telemetry.install_signal_dump ();
      let progress =
        if not show_progress then None
        else begin
          let p =
            Gat_util.Progress.create ~label
              ~total:(Gat_tuner.Space.cardinality space)
              ()
          in
          Some
            (fun ~done_ ~total ~failures ~workers ~reclaimed ->
              let render =
                if done_ >= total then Gat_util.Progress.finish
                else Gat_util.Progress.update
              in
              render p ~done_ ~failures
                ?cache_hit_pct:(codegen_cache_hit_pct ())
                ~workers ~reclaimed ())
        end
      in
      let log line = Printf.eprintf "gat: shard: %s\n%!" line in
      let report, dt =
        Gat_util.Metrics.timed t_sweep (fun () ->
            Gat_tuner.Shard.coordinate ~retries ?max_failures ~block
              ~ttl:lease_ttl ?progress ~log ~dir ~shards:k space kernel gpu
              ~n ~seed)
      in
      print_sweep_report kernel gpu ~n ~seed ~space ~top report;
      Printf.eprintf "gat: sharded sweep finished in %s\n%!"
        (Gat_util.Metrics.pp_duration dt)

let sweep_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Extra in-place attempts for a variant whose evaluation \
             raises before it is recorded as failed.")
  in
  let max_failures =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-failures" ] ~docv:"K"
          ~doc:
            "Abort the sweep (exit code 5) once more than $(docv) \
             variants have failed.  Default: record all failures and \
             keep going.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the last checkpoint of the same sweep if one \
             exists under $(b,GAT_CACHE_DIR); a byte-identical report \
             is produced either way.")
  in
  let no_checkpoint =
    Arg.(
      value & flag
      & info [ "no-checkpoint" ]
          ~doc:"Do not write progress checkpoints during the sweep.")
  in
  let block =
    Arg.(
      value
      & opt int Gat_tuner.Tuner.default_block_size
      & info [ "checkpoint-every" ] ~docv:"POINTS"
          ~doc:
            "Flush a checkpoint after each block of $(docv) points.  \
             Results never depend on the block size.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"How many best variants to print.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Live progress on stderr: points/s, ETA, compile-cache hit \
             rate, failure count.  Redraws in place on a TTY; degrades \
             to periodic full lines otherwise.  Never touches stdout.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Run the sweep as a $(docv)-shard coordination: the space is \
             partitioned into $(docv) contiguous ranges claimed through \
             lease files under the coordination directory.  Workers \
             started with $(b,gat sweep-worker) share the work; with \
             none attached the coordinator computes everything itself.  \
             The report is byte-identical to an unsharded sweep.")
  in
  let coordinator =
    Arg.(
      value
      & opt (some string) None
      & info [ "coordinator" ] ~docv:"DIR"
          ~doc:
            "Coordinate the sharded sweep under $(docv) instead of the \
             content-keyed default below the cache root.  Implies \
             $(b,--shards) 4 unless given.")
  in
  let lease_ttl =
    Arg.(
      value & opt float 30.0
      & info [ "lease-ttl" ] ~docv:"SECS"
          ~doc:
            "Shard lease time-to-live.  A holder's telemetry record, \
             republished after every checkpointed block, is its lease \
             heartbeat; a lease whose heartbeat is older than $(docv) \
             seconds is dead and its shard is reassigned, resuming from \
             the prefix in the dead holder's record.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Exhaustively evaluate the paper's 5,120-variant space with \
          supervision: per-variant failures are recorded (not fatal), \
          progress is checkpointed, an interrupted sweep can \
          $(b,--resume), and the work can be sharded across processes \
          and machines ($(b,--shards), $(b,gat sweep-worker)) — all \
          with byte-identical results.")
    Term.(
      const sweep $ kernel_arg $ gpu_arg $ n_arg $ seed $ jobs_arg $ retries
      $ max_failures $ resume $ no_checkpoint $ block $ no_cache_arg $ top
      $ progress $ trace_arg $ shards $ coordinator $ lease_ttl)

(* ---- sweep-worker ---- *)

let sweep_worker dir jobs retries block no_cache show_progress trace =
  skip_caches no_cache;
  set_trace trace;
  set_jobs jobs;
  if retries < 0 then
    Gat_util.Error.failf Usage "--retries must be >= 0 (got %d)" retries;
  if block < 1 then
    Gat_util.Error.failf Usage "--checkpoint-every must be >= 1 (got %d)" block;
  Gat_util.Cancel.install ();
  Gat_util.Telemetry.install_signal_dump ();
  match Gat_tuner.Shard.read_manifest dir with
  | None ->
      if Sys.file_exists (Gat_tuner.Shard.done_file dir) then
        (* The coordinator finished and its state was cleaned up to the
           done marker: nothing left to help with — a clean success. *)
        print_endline "coordinator already finished; nothing to do"
      else
        Gat_util.Error.failf Shard
          ~hint:
            "start a coordinator first: gat sweep KERNEL --shards K \
             --coordinator DIR"
          "no shard manifest under %s" dir
  | Some m -> (
      match
        (Gat_workloads.Workloads.find m.Gat_tuner.Shard.kernel,
         Gat_arch.Gpu.of_name m.Gat_tuner.Shard.gpu)
      with
      | Some kernel, Some gpu ->
          let progress =
            if not show_progress then None
            else begin
              (* One bar per claimed shard; a new shard index starts a
                 fresh bar. *)
              let cur = ref None in
              Some
                (fun ~shard ~done_ ~total ~failures ->
                  let p =
                    match !cur with
                    | Some (s, p) when s = shard -> p
                    | _ ->
                        let p =
                          Gat_util.Progress.create
                            ~label:(Printf.sprintf "shard %d" shard)
                            ~total ()
                        in
                        cur := Some (shard, p);
                        p
                  in
                  let render =
                    if done_ >= total then Gat_util.Progress.finish
                    else Gat_util.Progress.update
                  in
                  render p ~done_ ~failures
                    ?cache_hit_pct:(codegen_cache_hit_pct ())
                    ())
            end
          in
          let r =
            Gat_tuner.Shard.work ~retries ~block ?progress ~dir m ~kernel ~gpu
              ()
          in
          if r.Gat_tuner.Shard.stale then
            print_endline "coordinator already finished; nothing to do"
          else
            Printf.printf "worker done: %d shard%s, %d points\n"
              r.Gat_tuner.Shard.shards
              (if r.Gat_tuner.Shard.shards = 1 then "" else "s")
              r.Gat_tuner.Shard.points
      | _ ->
          Gat_util.Error.failf Shard
            "shard manifest references an unknown kernel or GPU (%s on %s)"
            m.Gat_tuner.Shard.kernel m.Gat_tuner.Shard.gpu)

let sweep_worker_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "The coordination directory printed by the coordinator \
             (shared via $(b,GAT_CACHE_DIR) or any common filesystem).")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Extra in-place attempts for a variant whose evaluation \
             raises before it is recorded as failed.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Live per-shard progress on stderr; never touches stdout.")
  in
  let block =
    Arg.(
      value
      & opt int Gat_tuner.Tuner.default_block_size
      & info [ "checkpoint-every" ] ~docv:"POINTS"
          ~doc:
            "Publish the in-flight shard's checkpoint in this worker's \
             record (the lease heartbeat) after each block of $(docv) \
             points.  Results never depend on the block size.")
  in
  Cmd.v
    (Cmd.info "sweep-worker"
       ~doc:
         "Attach to a sharded sweep and evaluate shards until none \
          remain.  Exits 0 when the coordinator already finished \
          (stale-but-done); crashes are tolerated — an expired lease is \
          reassigned and resumes from the dead worker's last record.")
    Term.(
      const sweep_worker $ dir $ jobs_arg $ retries $ block $ no_cache_arg
      $ progress $ trace_arg)

(* ---- replay ---- *)

let replay path seed =
  match Gat_tuner.Journal.load path with
  | Error e -> Gat_util.Error.failf Parse "%s: %s" path e
  | Ok journal -> (
      match
        ( Gat_workloads.Workloads.find journal.Gat_tuner.Journal.kernel,
          Gat_arch.Gpu.of_name journal.Gat_tuner.Journal.gpu )
      with
      | Some kernel, Some gpu ->
          let seed = Option.value ~default:journal.Gat_tuner.Journal.seed seed in
          let obj =
            Gat_tuner.Tuner.objective kernel gpu
              ~n:journal.Gat_tuner.Journal.n ~seed
          in
          let report = Gat_tuner.Journal.replay journal obj in
          Printf.printf
            "replayed %d decisions (%s on %s, N=%d, seed %d)\n\
             validity reproduced: %d/%d\n\
             max relative time deviation: %.2f%%\n"
            report.Gat_tuner.Journal.total journal.Gat_tuner.Journal.kernel
            journal.Gat_tuner.Journal.gpu journal.Gat_tuner.Journal.n seed
            report.Gat_tuner.Journal.validity_matches
            report.Gat_tuner.Journal.total
            (100.0 *. report.Gat_tuner.Journal.max_relative_deviation)
      | _ ->
          Gat_util.Error.fail Parse
            "journal references an unknown kernel or GPU")

let replay_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Measurement seed for the replay (default: the journal's).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a tuning journal and validate its recorded measurements.")
    Term.(const replay $ path $ seed)

(* ---- experiment ---- *)

let experiment jobs no_cache trace id =
  skip_caches no_cache;
  set_trace trace;
  set_jobs jobs;
  if String.lowercase_ascii id = "all" then
    print_string (Gat_report.Experiments.render_all ())
  else
    match Gat_report.Experiments.find id with
    | Some e -> print_string (e.Gat_report.Experiments.render ())
    | None ->
        Gat_util.Error.failf Usage
          ~hint:
            (Printf.sprintf "available: all, %s"
               (String.concat ", "
                  (List.map
                     (fun e -> e.Gat_report.Experiments.id)
                     Gat_report.Experiments.all)))
          "unknown experiment %S" id

let experiment_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a paper table or figure (or 'all').")
    Term.(const experiment $ jobs_arg $ no_cache_arg $ trace_arg $ id)

(* ---- cache ---- *)

let human_bytes b =
  if b >= 1024 * 1024 then Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.0)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%d B" b

let cache action max_bytes =
  match action with
  | "stats" ->
      let disk = Gat_tuner.Disk_cache.cache and art = Gat_compiler.Artifacts.cache in
      let entries, bytes = Gat_util.Store.disk_usage disk in
      let a_entries, a_bytes = Gat_util.Store.disk_usage art in
      Printf.printf
        "directory: %s\nmodel:     %s\nentries:   %d (%s)\n\
         artifacts: %d (%s) under %s\n"
        (Gat_util.Store.dir disk) Gat_tuner.Disk_cache.model_version entries
        (human_bytes bytes) a_entries (human_bytes a_bytes)
        (Gat_util.Store.dir art);
      let sh = Gat_tuner.Shard.usage () in
      Printf.printf
        "shards:    %d director%s, %d files (%s); %d live lease%s (%s \
         pinned)\n\
         telemetry: %d snapshot%s under shard dirs\n"
        sh.Gat_tuner.Shard.dirs
        (if sh.Gat_tuner.Shard.dirs = 1 then "y" else "ies")
        sh.Gat_tuner.Shard.files
        (human_bytes sh.Gat_tuner.Shard.bytes)
        sh.Gat_tuner.Shard.live_leases
        (if sh.Gat_tuner.Shard.live_leases = 1 then "" else "s")
        (human_bytes sh.Gat_tuner.Shard.pinned_bytes)
        sh.Gat_tuner.Shard.telem_files
        (if sh.Gat_tuner.Shard.telem_files = 1 then "" else "s")
  | "clear" ->
      let removed =
        Gat_util.Store.clear Gat_tuner.Disk_cache.cache
        + Gat_util.Store.clear Gat_compiler.Artifacts.cache
        + Gat_tuner.Shard.clear ()
      in
      Printf.printf "removed %d cache entr%s from %s\n" removed
        (if removed = 1 then "y" else "ies")
        (Gat_util.Cache_dir.root ())
  | "gc" ->
      let max_bytes =
        match max_bytes with
        | Some b when b >= 0 -> b
        | Some b ->
            Gat_util.Error.failf Usage "--max-bytes must be >= 0 (got %d)" b
        | None ->
            Gat_util.Error.failf Usage
              ~hint:"e.g. gat cache gc --max-bytes 104857600"
              "cache gc needs --max-bytes"
      in
      let r = Gat_tuner.Artifact_store.gc ~max_bytes in
      Printf.printf
        "%d files (%s) examined; evicted %d (%s), %s kept under %s\n"
        r.Gat_tuner.Artifact_store.files
        (human_bytes r.Gat_tuner.Artifact_store.bytes)
        r.Gat_tuner.Artifact_store.removed_files
        (human_bytes r.Gat_tuner.Artifact_store.removed_bytes)
        (human_bytes
           (r.Gat_tuner.Artifact_store.bytes
           - r.Gat_tuner.Artifact_store.removed_bytes))
        (Gat_util.Cache_dir.root ())
  | _ ->
      Gat_util.Error.failf Usage ~hint:"expected: stats, clear, gc"
        "unknown cache action %S" action

let cache_cmd =
  let action =
    Arg.(
      value & pos 0 string "stats"
      & info [] ~docv:"ACTION"
          ~doc:"$(b,stats) prints entry and artifact counts and sizes; \
                $(b,clear) removes every entry (sweeps and artifacts); \
                $(b,gc) evicts least-recently-used entries down to \
                $(b,--max-bytes).")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte budget for $(b,gc): sweep entries, checkpoints and \
             compile artifacts are evicted coldest-first (by access \
             time) until the cache fits.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect, clear or bound the persistent caches — sweep results \
          and the compile artifact store (location: $(b,GAT_CACHE_DIR), \
          default ~/.cache/gat).")
    Term.(const cache $ action $ max_bytes)

(* ---- stats ---- *)

let stats timers =
  print_string
    (if timers then Gat_util.Metrics.render ()
     else Gat_util.Metrics.render_counters ())

let stats_cmd =
  let timers =
    Arg.(
      value & flag
      & info [ "timers" ]
          ~doc:
            "Also print wall-clock timer summaries \
             ($(b,_seconds_count)/$(b,_seconds_sum)); these are not \
             deterministic across runs.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the process metrics registry as Prometheus-style text \
          (sorted, deterministic).  Set $(b,GAT_STATS=1) to dump the \
          same snapshot to stderr after any subcommand.")
    Term.(const stats $ timers)

(* ---- trace-check ---- *)

let trace_check file require =
  match Gat_util.Trace.validate_file ~require file with
  | Error e -> Gat_util.Error.failf Parse "%s: %s" file e
  | Ok v ->
      Printf.printf
        "ok: %d events on %d tracks from %d process%s, %d counter samples\n\
         spans: %s\n"
        v.Gat_util.Trace.events v.Gat_util.Trace.tracks
        v.Gat_util.Trace.pids
        (if v.Gat_util.Trace.pids = 1 then "" else "es")
        (List.length v.Gat_util.Trace.counters)
        (match v.Gat_util.Trace.span_names with
        | [] -> "(none)"
        | names -> String.concat " " names)

let trace_check_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let require =
    Arg.(
      value & opt_all string []
      & info [ "require" ] ~docv:"COUNTER"
          ~doc:
            "Fail unless a counter sample with this name is present \
             (repeatable).  $(i,NAME>K), $(i,NAME>=K) and $(i,NAME=K) \
             additionally compare the sample's value against the \
             integer $(i,K), e.g. $(b,--require pool.maps>0).")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event JSON file produced by \
          $(b,--trace): structure, per-track B/E balance, X durations, \
          required counter samples.  Exit code 3 on any violation.")
    Term.(const trace_check $ file $ require)

(* ---- trace-merge ---- *)

let trace_merge dir out =
  let body, events, procs, skipped = Gat_util.Telemetry.merge_dir dir in
  if procs = 0 then
    Gat_util.Error.failf Io
      ~hint:"run a sharded sweep there first: gat sweep ... --shards K"
      "no telemetry snapshots under %s" dir;
  (try
     Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc body)
   with Sys_error e -> Gat_util.Error.failf Io "cannot write %s: %s" out e);
  Printf.printf "merged %d events from %d process%s into %s\n" events procs
    (if procs = 1 then "" else "es")
    out;
  if skipped > 0 then
    Printf.printf "skipped %d corrupt snapshot%s\n" skipped
      (if skipped = 1 then "" else "s")

let trace_merge_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "A coordination directory holding $(i,host.pid.telem) \
             snapshots, one per process, crashed ones included.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the merged Chrome trace.")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Fold every telemetry snapshot under a coordination directory \
          into one Chrome trace: one process track per (host,pid), \
          domain tracks under each, clocks aligned via the snapshots' \
          epoch anchors, counters summed fleet-wide.  Corrupt \
          snapshots are skipped and counted.")
    Term.(const trace_merge $ dir $ out)

(* ---- monitor ---- *)

let monitor dir interval once =
  if interval <= 0.0 then
    Gat_util.Error.failf Usage "--interval must be > 0 (got %g)" interval;
  Gat_util.Cancel.install ();
  let tty = Unix.isatty Unix.stdout in
  let print_table () =
    let rows, skipped = Gat_tuner.Monitor.rows dir in
    let extra =
      if skipped > 0 then
        Printf.sprintf "(%d corrupt snapshot%s skipped)\n" skipped
          (if skipped = 1 then "" else "s")
      else ""
    in
    let table =
      if rows = [] then "no workers seen yet\n"
      else Gat_tuner.Monitor.render rows
    in
    let s = table ^ extra in
    print_string s;
    flush stdout;
    (* Lines printed, so the TTY path can rewind and redraw in place. *)
    String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s
  in
  if once then ignore (print_table ())
  else begin
    let prev = ref 0 in
    let finished = ref false in
    while not !finished do
      if tty && !prev > 0 then Printf.printf "\027[%dA\027[J" !prev;
      prev := print_table ();
      if Sys.file_exists (Gat_tuner.Shard.done_file dir) then begin
        print_endline "coordination finished";
        finished := true
      end
      else if Gat_util.Cancel.requested () then finished := true
      else
        try Unix.sleepf interval
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  end

let monitor_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "The coordination directory of a running (or finished) \
             sharded sweep.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Seconds between refreshes (default 2).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print the table once and exit (for scripts).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Live fleet view of a sharded sweep: one line per worker — \
          host/pid, held shard, points/s, block-latency p50/p99, \
          heartbeat age, reclaims, crash note — from the telemetry \
          records in the coordination directory.  Read-only.  \
          Redraws in place on a TTY; prints a full table per refresh \
          otherwise.  Exits when the coordination publishes its done \
          marker.")
    Term.(const monitor $ dir $ interval $ once)

(* ---- list ---- *)

let list_all () =
  print_endline "kernels:";
  List.iter
    (fun (k : Gat_ir.Kernel.t) ->
      Printf.printf "  %-10s %s\n" k.Gat_ir.Kernel.name k.Gat_ir.Kernel.description)
    Gat_workloads.Workloads.all;
  print_endline "devices:";
  List.iter
    (fun (g : Gat_arch.Gpu.t) ->
      Printf.printf "  %-6s %s (%s)\n" g.Gat_arch.Gpu.name
        (Gat_arch.Gpu.family g)
        (Gat_arch.Compute_capability.to_string g.Gat_arch.Gpu.cc))
    Gat_arch.Gpu.all;
  print_endline "experiments:";
  List.iter
    (fun (e : Gat_report.Experiments.t) ->
      Printf.printf "  %-7s %s\n" e.Gat_report.Experiments.id
        e.Gat_report.Experiments.title)
    Gat_report.Experiments.all

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List kernels, devices and experiments.")
    Term.(const list_all $ const ())

let () =
  let info =
    Cmd.info "gat" ~version:"1.0.0"
      ~doc:"Autotuning GPU kernels via static and predictive analysis."
  in
  let group =
    Cmd.group info
      [
        analyze_cmd; disasm_cmd; cfg_cmd; lint_cmd; verify_cmd;
        occupancy_cmd;
        suggest_cmd;
        simulate_cmd; emulate_cmd; dynamics_cmd; parse_cmd; autotune_cmd;
        sweep_cmd;
        sweep_worker_cmd;
        replay_cmd;
        experiment_cmd;
        cache_cmd;
        stats_cmd;
        trace_check_cmd;
        trace_merge_cmd;
        monitor_cmd;
        list_cmd;
      ]
  in
  (* Exit codes are part of the interface (see README): cmdliner's own
     parse failures (unknown subcommand, unknown flag, malformed
     --gpu/kernel name) map to the Usage code alongside our structured
     errors; everything unexpected is Internal. *)
  let code =
    try
      match Cmd.eval_value ~catch:false group with
      | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
      | Error (`Parse | `Term) -> Gat_util.Error.exit_code Usage
      | Error `Exn -> Gat_util.Error.exit_code Internal
    with
    | Gat_util.Error.Error e ->
        (* Crash flight recorder: a fatal error during a telemetry
           session republishes its sealed record with the error as its
           note (ring buffers, counters, the last hold) for the
           coordinator to surface and merge. *)
        Gat_util.Telemetry.crash_dump ~reason:(Gat_util.Error.to_string e);
        Printf.eprintf "gat: %s\n" (Gat_util.Error.to_string e);
        Option.iter (Printf.eprintf "hint: %s\n") e.Gat_util.Error.hint;
        Gat_util.Error.exit_code e.Gat_util.Error.stage
    | e ->
        Gat_util.Telemetry.crash_dump
          ~reason:("internal error: " ^ Printexc.to_string e);
        Printf.eprintf "gat: internal error: %s\n" (Printexc.to_string e);
        Gat_util.Error.exit_code Internal
  in
  (* Observability flushes on every exit path — errors included — so a
     failed run still leaves its trace and metrics behind.  A sharded
     coordinator's --trace becomes the fleet-merged trace: every
     process's snapshot under the coordination directory, one Chrome
     process per (host,pid), clocks aligned via the epoch anchors. *)
  (match (Gat_util.Telemetry.dir (), Gat_util.Trace.out_path ()) with
  | Some dir, Some path when !fleet_merge -> (
      let body, events, procs, skipped = Gat_util.Telemetry.merge_dir dir in
      (try
         Out_channel.with_open_bin path (fun oc ->
             Out_channel.output_string oc body);
         Printf.eprintf
           "gat: trace: %d events from %d process%s merged to %s%s\n%!"
           events procs
           (if procs = 1 then "" else "es")
           path
           (if skipped > 0 then
              Printf.sprintf " (%d corrupt snapshot(s) skipped)" skipped
            else "")
       with Sys_error e -> Printf.eprintf "gat: trace: %s\n%!" e);
      Gat_util.Trace.disable ();
      Gat_util.Trace.clear ())
  | _ -> (
      match Gat_util.Trace.finish () with
      | Some (path, events) ->
          Printf.eprintf "gat: trace: %d events written to %s\n%!" events path
      | None -> ()));
  if Gat_util.Metrics.dump_requested () then
    prerr_string (Gat_util.Metrics.render ());
  exit code
