let seed = 42
let gpus = Gat_arch.Gpu.all
let kernels = Gat_workloads.Workloads.all
let eval_size kernel = Gat_workloads.Workloads.default_size kernel

let sweep kernel gpu =
  Gat_tuner.Tuner.sweep kernel gpu ~n:(eval_size kernel) ~seed

(* A pruned space's points are a subset of the sweep's, each with the
   time the sweep already measured, so a search over the pruned space
   finds the best of those sweep times; [infinity] when none survives,
   as the search would report. *)
let pruned kernel gpu space =
  let best keep =
    List.fold_left
      (fun acc (v : Gat_tuner.Variant.t) ->
        if keep v.params then Float.min acc v.time_ms else acc)
      infinity (sweep kernel gpu)
  in
  ( Gat_tuner.Static_search.reduction ~original:Gat_tuner.Space.paper
      ~pruned:space,
    best (fun _ -> true) /. best (Gat_tuner.Space.mem space) )

(* One compile per variant, five simulate passes — the compile-sharing
   multi-size sweep.  The tuner's sweep memo holds every result. *)
let sweeps kernel gpu =
  Gat_tuner.Tuner.sweep_multi kernel gpu
    ~ns:(Gat_workloads.Workloads.input_sizes kernel)
    ~seed

(* Several experiments (Fig. 4, Table V) ask for the same pooled
   ranking, so it is computed once per (kernel, gpu). *)
module Rankings = Gat_util.Memo.Make (String)

let pooled : Gat_tuner.Ranking.t Rankings.t = Rankings.create ()

let pooled_ranking kernel gpu =
  Rankings.find_or_compute pooled
    (kernel.Gat_ir.Kernel.name ^ "|" ^ gpu.Gat_arch.Gpu.name)
    (fun () ->
      let rankings =
        List.map (fun (_, vs) -> Gat_tuner.Ranking.split vs) (sweeps kernel gpu)
      in
      {
        Gat_tuner.Ranking.rank1 =
          List.concat_map (fun r -> r.Gat_tuner.Ranking.rank1) rankings;
        rank2 = List.concat_map (fun r -> r.Gat_tuner.Ranking.rank2) rankings;
      })
