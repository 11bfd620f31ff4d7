type predictor_row = {
  kernel : string;
  family : string;
  mae_class_cpi : float;
  mae_category_cpi : float;
  mae_unweighted : float;
}

let predictor_row kernel gpu =
  let variants = Context.sweep kernel gpu in
  let series cost_of =
    Array.of_list
      (List.map
         (fun (v : Gat_tuner.Variant.t) ->
           let mix =
             Gat_core.Imix.scale
               (float_of_int
                  (Gat_compiler.Params.total_threads v.Gat_tuner.Variant.params))
               v.Gat_tuner.Variant.est_mix
           in
           cost_of mix)
         variants)
  in
  let measured =
    Array.of_list
      (List.map (fun (v : Gat_tuner.Variant.t) -> v.Gat_tuner.Variant.time_ms) variants)
  in
  let mae predicted = Gat_core.Predict.normalized_error ~predicted ~measured in
  {
    kernel = kernel.Gat_ir.Kernel.name;
    family = Gat_arch.Gpu.family gpu;
    mae_class_cpi = mae (series (Gat_core.Predict.cost gpu));
    mae_category_cpi = mae (series (Gat_core.Predict.cost_per_category gpu));
    mae_unweighted =
      mae (series (fun mix -> Gat_core.Imix.total mix +. Gat_core.Imix.oreg mix));
  }

let predictor_rows () =
  List.concat_map
    (fun kernel -> List.map (predictor_row kernel) Context.gpus)
    Context.kernels

type pruning_row = {
  kernel : string;
  static_only : float * float;
  rules_only : float * float;
  combined : float * float;
}

let pruning_row gpu kernel =
  let space = Gat_tuner.Space.paper in
  let pruning =
    match Gat_tuner.Static_search.prune kernel gpu space with
    | Ok p -> p
    | Error e -> Gat_util.Error.fail Compile e
  in
  (* Rules-only: apply the intensity band to the raw TC axis. *)
  let rules_only_space =
    Gat_tuner.Space.with_tc space
      (Gat_core.Rules.apply
         ~intensity:pruning.Gat_tuner.Static_search.effective_intensity
         space.Gat_tuner.Space.tc)
  in
  let evaluate = Context.pruned kernel gpu in
  {
    kernel = kernel.Gat_ir.Kernel.name;
    static_only = evaluate pruning.Gat_tuner.Static_search.static_space;
    rules_only = evaluate rules_only_space;
    combined = evaluate pruning.Gat_tuner.Static_search.rule_space;
  }

let pruning_rows ?(gpu = Gat_arch.Gpu.k20) () =
  List.map (pruning_row gpu) Context.kernels

let render () =
  let buf = Buffer.create 4096 in
  let t1 =
    Gat_util.Table.create
      ~title:
        "Ablation A. Eq. 6 weighting: normalized MAE of three predictor\n\
         variants against measured time (lower is better)."
      [ "Kernel"; "Arch"; "class CPI (paper)"; "per-category CPI"; "unweighted" ]
  in
  List.iter
    (fun (r : predictor_row) ->
      Gat_util.Table.add_row t1
        [
          r.kernel;
          r.family;
          Printf.sprintf "%.4f" r.mae_class_cpi;
          Printf.sprintf "%.4f" r.mae_category_cpi;
          Printf.sprintf "%.4f" r.mae_unweighted;
        ])
    (predictor_rows ());
  Buffer.add_string buf (Gat_util.Table.render t1);
  Buffer.add_char buf '\n';
  let t2 =
    Gat_util.Table.create
      ~title:
        "Ablation B. Pruning decomposition on Kepler: space reduction /\n\
         solution quality for the occupancy suggestion (static), the\n\
         intensity rule alone (RB), and their composition."
      [ "Kernel"; "static"; "RB only"; "static+RB" ]
  in
  List.iter
    (fun (r : pruning_row) ->
      let fmt (reduction, quality) =
        Printf.sprintf "%.1f%% / %.3f" (100.0 *. reduction) quality
      in
      Gat_util.Table.add_row t2
        [ r.kernel; fmt r.static_only; fmt r.rules_only; fmt r.combined ])
    (pruning_rows ());
  Buffer.add_string buf (Gat_util.Table.render t2);
  Buffer.contents buf
