open Gat_arch

let cost (gpu : Gpu.t) mix =
  let cc = gpu.Gpu.cc in
  let cf = Throughput.class_cpi cc Throughput.Flops in
  let cm = Throughput.class_cpi cc Throughput.Memory in
  let cb = Throughput.class_cpi cc Throughput.Control in
  let cr = Throughput.class_cpi cc Throughput.Register in
  (cf *. Imix.ofl mix)
  +. (cm *. Imix.omem mix)
  +. (cb *. Imix.octrl mix)
  +. (cr *. Imix.oreg mix)

let cost_per_category (gpu : Gpu.t) mix =
  let cc = gpu.Gpu.cc in
  let acc =
    List.fold_left
      (fun acc cat ->
        acc +. (Throughput.cpi cc cat *. Imix.category_count mix cat))
      0.0 Throughput.all_categories
  in
  acc
  +. (Throughput.class_cpi cc Throughput.Register *. Imix.oreg mix)

let rank_order values =
  let idx = Array.init (Array.length values) Fun.id in
  Array.sort (fun a b -> compare values.(a) values.(b)) idx;
  idx

let normalized_error ~predicted ~measured =
  if Array.length predicted <> Array.length measured then
    invalid_arg "Predict.normalized_error: length mismatch";
  let order = rank_order measured in
  let permute xs = Array.map (fun i -> xs.(i)) order in
  let p = Gat_util.Stats.normalize (permute predicted) in
  let m = Gat_util.Stats.normalize (permute measured) in
  Gat_util.Stats.mae p m
