type row = {
  kernel : string;
  family : string;
  static_improvement : float;
  rule_improvement : float;
  static_quality : float;
  rule_quality : float;
}

let row kernel gpu =
  let pruning =
    match Gat_tuner.Static_search.prune kernel gpu Gat_tuner.Space.paper with
    | Ok p -> p
    | Error e -> Gat_util.Error.fail Compile e
  in
  let static_improvement, static_quality =
    Context.pruned kernel gpu pruning.Gat_tuner.Static_search.static_space
  in
  let rule_improvement, rule_quality =
    Context.pruned kernel gpu pruning.Gat_tuner.Static_search.rule_space
  in
  {
    kernel = kernel.Gat_ir.Kernel.name;
    family = Gat_arch.Gpu.family gpu;
    static_improvement;
    rule_improvement;
    static_quality;
    rule_quality;
  }

let rows () =
  List.concat_map
    (fun kernel -> List.map (row kernel) Context.gpus)
    Context.kernels

let render () =
  let t =
    Gat_util.Table.create
      ~title:
        "Fig. 6. Improved search time over exhaustive autotuning:\n\
         fraction of the 5,120-variant space avoided by static pruning\n\
         and by static + rule-based pruning, with solution quality\n\
         (exhaustive best time / pruned-search best time)."
      [
        "Kernel"; "Arch"; "Static impr."; "Static+RB impr.";
        "Static quality"; "Static+RB quality";
      ]
  in
  List.iter
    (fun r ->
      Gat_util.Table.add_row t
        [
          r.kernel;
          r.family;
          Printf.sprintf "%.1f%%" (100.0 *. r.static_improvement);
          Printf.sprintf "%.1f%%" (100.0 *. r.rule_improvement);
          Printf.sprintf "%.3f" r.static_quality;
          Printf.sprintf "%.3f" r.rule_quality;
        ])
    (rows ());
  Gat_util.Table.render t
