type compiled = {
  kernel : Gat_ir.Kernel.t;
  gpu : Gat_arch.Gpu.t;
  params : Params.t;
  ptx : Gat_isa.Program.t;
  digest : string;
  program : Gat_isa.Program.t;
  log : Ptxas_info.t;
  alloc_stats : Regalloc.stats;
  profile : Profile.t;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
  block_table : Block_table.t;
}

let m_compiles = Gat_util.Metrics.counter "compile.count"
let m_rejected = Gat_util.Metrics.counter "compile.rejected"

let compile kernel gpu params =
  Gat_util.Metrics.incr m_compiles;
  let result =
    Gat_util.Trace.span "compile"
      ~args:
        [
          ("kernel", Gat_util.Trace.S kernel.Gat_ir.Kernel.name);
          ("gpu", Gat_util.Trace.S gpu.Gat_arch.Gpu.name);
          ("params", Gat_util.Trace.S (Params.to_string params));
        ]
    @@ fun () ->
    match Params.validate gpu params with
    | Error msg -> Error ("invalid parameters: " ^ msg)
    | Ok () -> (
        if
          Lowering.smem_dynamic ~staging:params.Params.staging
            ~tc:params.Params.threads_per_block
          > gpu.Gat_arch.Gpu.smem_per_block
        then Error "shared memory per block exceeds the device limit"
        else
          match Codegen_cache.run ~gpu kernel params with
          | Error msg -> Error ("ill-typed kernel: " ^ msg)
          | Ok (ptx, profile, backend) ->
              let program = backend.Codegen_cache.program in
              let alloc_stats = backend.Codegen_cache.alloc_stats in
              let log = Ptxas_info.of_program program alloc_stats in
              let block_table =
                Gat_util.Trace.span "compile.block_table" (fun () ->
                    Block_table.instantiate backend.Codegen_cache.shape ~gpu
                      ~params ~regs_per_thread:log.Ptxas_info.registers
                      ~smem_per_block:(Gat_isa.Program.smem_per_block program))
              in
              Ok
                {
                  kernel;
                  gpu;
                  params;
                  ptx;
                  digest = backend.Codegen_cache.digest;
                  program;
                  log;
                  alloc_stats;
                  profile;
                  mem_summary = backend.Codegen_cache.mem_summary;
                  block_table;
                })
  in
  (match result with Error _ -> Gat_util.Metrics.incr m_rejected | Ok _ -> ());
  result

let compile_exn kernel gpu params =
  match compile kernel gpu params with
  | Ok c -> c
  | Error msg ->
      invalid_arg (Printf.sprintf "Driver.compile %s: %s" kernel.Gat_ir.Kernel.name msg)
