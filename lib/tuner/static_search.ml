type pruning = {
  suggestion : Gat_core.Suggest.t;
  intensity : float;
  mem_transaction_factor : float;
  effective_intensity : float;
  static_space : Space.t;
  rule_space : Space.t;
}

(* Average transactions-per-warp over the kernel's global accesses,
   from the compile-time coalescing analysis; 1.0 for memory-free
   kernels. *)
let transaction_factor (compiled : Gat_compiler.Driver.compiled) =
  let accesses =
    List.concat_map snd compiled.Gat_compiler.Driver.mem_summary
  in
  match accesses with
  | [] -> 1.0
  | _ ->
      let total =
        List.fold_left
          (fun acc (a : Gat_analysis.Coalescing.access) ->
            acc +. a.Gat_analysis.Coalescing.transactions)
          0.0 accesses
      in
      Float.max 1.0 (total /. float_of_int (List.length accesses))

(* The analyzer's one compile-only reference build: mid-space threads,
   no unrolling, no fast math — resource usage (Ru, Su) barely moves
   across the space for these kernels, and no variant is executed. *)
let reference_params = Gat_compiler.Params.default

let suggestion gpu (compiled : Gat_compiler.Driver.compiled) =
  let log = compiled.Gat_compiler.Driver.log in
  Gat_core.Suggest.suggest gpu
    ~regs_per_thread:log.Gat_compiler.Ptxas_info.registers
    ~smem_per_block:
      (log.Gat_compiler.Ptxas_info.smem_static
      + log.Gat_compiler.Ptxas_info.smem_dynamic)

let prune kernel gpu space =
  match Gat_compiler.Driver.compile kernel gpu reference_params with
  | Error e -> Error ("static analysis failed to compile the kernel: " ^ e)
  | Ok compiled ->
      let suggestion = suggestion gpu compiled in
      let mix = Gat_core.Imix.static_of_program compiled.Gat_compiler.Driver.program in
      let intensity = Gat_core.Imix.intensity mix in
      let mem_transaction_factor = transaction_factor compiled in
      let effective_intensity =
        Gat_core.Rules.effective_intensity mix ~mem_transaction_factor
      in
      let suggested = suggestion.Gat_core.Suggest.threads in
      let static_space =
        Space.restrict_tc space ~keep:(fun tc -> List.mem tc suggested)
      in
      (* Never prune to an empty axis: fall back to the nearest
         suggested counts present in the space. *)
      let static_space =
        if static_space.Space.tc = [] then space else static_space
      in
      let rule_tc =
        Gat_core.Rules.apply ~intensity:effective_intensity
          static_space.Space.tc
      in
      let rule_space = Space.with_tc static_space rule_tc in
      Ok
        {
          suggestion;
          intensity;
          mem_transaction_factor;
          effective_intensity;
          static_space;
          rule_space;
        }

let reduction ~original ~pruned =
  let o = float_of_int (Space.cardinality original) in
  let p = float_of_int (Space.cardinality pruned) in
  if o <= 0.0 then 0.0 else 1.0 -. (p /. o)

let run kernel gpu ~rule_based objective space =
  match prune kernel gpu space with
  | Error _ ->
      { Search.best_params = None; best_time = infinity; evaluations = 0 }
  | Ok pruning ->
      let target = if rule_based then pruning.rule_space else pruning.static_space in
      Strategies.exhaustive objective target
