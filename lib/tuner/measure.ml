let repetitions = 10
let selected_trial = 5

(* Only the selected trial's value is ever used, and the noise stream
   is consumed in trial order — so draw exactly [selected_trial]
   samples instead of all [repetitions].  The recorded time is
   bit-identical to the draw-everything protocol. *)
let selected_time base ~rng =
  let t = ref base in
  for _ = 1 to selected_trial do
    t := base *. Gat_util.Rng.lognormal rng ~mu:0.0 ~sigma:0.02
  done;
  !t

let time_of compiled ~n ~rng =
  (* The simulated kernel time is deterministic; each trial differs
     only by measurement noise, as on real hardware. *)
  let base = (Gat_sim.Engine.run compiled ~n).Gat_sim.Engine.time_ms in
  selected_time base ~rng

(* [Imix.estimate_dynamic] replayed over the block table.  Inside a
   block every instruction adds the block's weight, so each category
   accumulator sees the same additions in the same order ([k] adds of
   [w], block by block) and the register-operand sum replays the stored
   body-then-terminator sequence: bit-identical, without walking the
   instructions through the category lookup. *)
let est_mix (c : Gat_compiler.Driver.compiled) ~n =
  let sh = c.Gat_compiler.Driver.block_table.Gat_compiler.Block_table.shape in
  let ncat = sh.Gat_compiler.Block_table.n_categories in
  let per_category = Array.make ncat 0.0 in
  let reg_operands = ref 0.0 in
  List.iteri
    (fun i (b : Gat_isa.Basic_block.t) ->
      let w = Gat_isa.Weight.eval b.Gat_isa.Basic_block.weight ~n in
      let mc = sh.Gat_compiler.Block_table.mix_counts.(i) in
      for cat = 0 to ncat - 1 do
        for _ = 1 to mc.(cat) do
          per_category.(cat) <- per_category.(cat) +. w
        done
      done;
      Array.iter
        (fun r -> reg_operands := !reg_operands +. (w *. r))
        sh.Gat_compiler.Block_table.reg_ops.(i))
    c.Gat_compiler.Driver.program.Gat_isa.Program.blocks;
  { Gat_core.Imix.per_category; reg_operands = !reg_operands }

let evaluate_compiled compiled ~n ~rng =
  let sim = Gat_sim.Engine.run compiled ~n in
  {
    Variant.params = compiled.Gat_compiler.Driver.params;
    time_ms = selected_time sim.Gat_sim.Engine.time_ms ~rng;
    occupancy = sim.Gat_sim.Engine.occupancy;
    registers = compiled.Gat_compiler.Driver.log.Gat_compiler.Ptxas_info.registers;
    dynamic_mix = sim.Gat_sim.Engine.dynamic_mix;
    est_mix = est_mix compiled ~n;
  }

let evaluate kernel gpu ~n ~rng params =
  match Gat_compiler.Driver.compile kernel gpu params with
  | Error e -> Error e
  | Ok compiled -> Ok (evaluate_compiled compiled ~n ~rng)
