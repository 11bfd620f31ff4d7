open Search

let finish best_params best_time evaluations =
  { best_params; best_time; evaluations }

let better time best = time < best

let exhaustive objective space =
  let objective, count = counting_objective objective in
  let best_params, best_time =
    List.fold_left
      (fun (bp, bt) params ->
        match objective params with
        | Some t when better t bt -> (Some params, t)
        | Some _ | None -> (bp, bt))
      (None, infinity) (Space.points space)
  in
  finish best_params best_time (count ())

let random ?(budget = 100) rng objective space =
  let objective, count = counting_objective objective in
  let axes = axes_of_space space in
  let best = ref (None, infinity) in
  for _ = 1 to budget do
    let params = params_of_point axes (random_point rng axes) in
    match objective params with
    | Some t when better t (snd !best) -> best := (Some params, t)
    | Some _ | None -> ()
  done;
  let bp, bt = !best in
  finish bp bt (count ())

(* Single-axis neighbour: move one coordinate by +/-1. *)
let neighbour rng axes point =
  let next = Array.copy point in
  let axis = Gat_util.Rng.int rng (dims axes) in
  let len = axis_length axes axis in
  let delta = if Gat_util.Rng.bool rng then 1 else -1 in
  next.(axis) <- max 0 (min (len - 1) (next.(axis) + delta));
  next

let annealing ?(iterations = 300) ?(initial_temp = 1.0) rng objective space =
  let objective, count = counting_objective objective in
  let axes = axes_of_space space in
  let eval point = objective (params_of_point axes point) in
  let current = ref (random_point rng axes) in
  let rec first_valid tries =
    match eval !current with
    | Some t -> t
    | None ->
        if tries = 0 then infinity
        else begin
          current := random_point rng axes;
          first_valid (tries - 1)
        end
  in
  let current_time = ref (first_valid 20) in
  let best = ref (Array.copy !current, !current_time) in
  let temp = ref initial_temp in
  let cooling = 0.985 in
  for _ = 1 to iterations do
    let candidate = neighbour rng axes !current in
    (match eval candidate with
    | Some t ->
        let accept =
          t < !current_time
          || Gat_util.Rng.uniform rng
             < exp ((!current_time -. t) /. Float.max 1e-12 (!temp *. Float.max 1e-9 !current_time))
        in
        if accept then begin
          current := candidate;
          current_time := t
        end;
        if t < snd !best then best := (Array.copy candidate, t)
    | None -> ());
    temp := !temp *. cooling
  done;
  let point, time = !best in
  let bp = if time = infinity then None else Some (params_of_point axes point) in
  finish bp time (count ())

let genetic ?(generations = 15) ?(population = 20) rng objective space =
  let objective, count = counting_objective objective in
  let axes = axes_of_space space in
  let eval point =
    match objective (params_of_point axes point) with
    | Some t -> t
    | None -> infinity
  in
  let pop =
    Array.init population (fun _ ->
        let p = random_point rng axes in
        (p, eval p))
  in
  let tournament () =
    let a = pop.(Gat_util.Rng.int rng population) in
    let b = pop.(Gat_util.Rng.int rng population) in
    if snd a <= snd b then fst a else fst b
  in
  let crossover a b =
    Array.init (dims axes) (fun i -> if Gat_util.Rng.bool rng then a.(i) else b.(i))
  in
  let mutate point =
    Array.iteri
      (fun i _ ->
        if Gat_util.Rng.uniform rng < 0.15 then
          point.(i) <- Gat_util.Rng.int rng (axis_length axes i))
      point;
    point
  in
  let best = ref (None, infinity) in
  let consider (point, time) =
    if time < snd !best then best := (Some (Array.copy point), time)
  in
  Array.iter consider pop;
  for _ = 1 to generations do
    let next =
      Array.init population (fun _ ->
          let child = mutate (crossover (tournament ()) (tournament ())) in
          (child, eval child))
    in
    Array.blit next 0 pop 0 population;
    Array.iter consider pop
  done;
  let bp, bt = !best in
  finish (Option.map (params_of_point axes) bp) bt (count ())

(* Nelder-Mead on the continuous index space, evaluated at rounded
   lattice points. *)
let nelder_mead ?(restarts = 3) rng objective space =
  let objective, count = counting_objective objective in
  let axes = axes_of_space space in
  let d = dims axes in
  let eval x =
    let point = Array.map (fun v -> int_of_float (Float.round v)) x in
    match objective (params_of_point axes point) with
    | Some t -> t
    | None -> infinity
  in
  let best = ref (None, infinity) in
  let consider x t =
    if t < snd !best then begin
      let point = Array.map (fun v -> int_of_float (Float.round v)) x in
      best := (Some (params_of_point axes point), t)
    end
  in
  let run_once () =
    (* Initial simplex: a random vertex plus unit offsets. *)
    let base = Array.map float_of_int (random_point rng axes) in
    let simplex =
      Array.init (d + 1) (fun i ->
          let v = Array.copy base in
          if i > 0 then v.(i - 1) <- v.(i - 1) +. 1.0;
          let t = eval v in
          consider v t;
          (v, t))
    in
    let centroid except =
      let c = Array.make d 0.0 in
      Array.iteri
        (fun i (v, _) ->
          if i <> except then Array.iteri (fun j x -> c.(j) <- c.(j) +. x) v)
        simplex;
      Array.map (fun x -> x /. float_of_int d) c
    in
    let combine a b alpha =
      Array.init d (fun i -> a.(i) +. (alpha *. (b.(i) -. a.(i))))
    in
    for _ = 1 to 60 do
      Array.sort (fun (_, a) (_, b) -> compare a b) simplex;
      let worst_i = d in
      let xw, fw = simplex.(worst_i) in
      let _, fbest = simplex.(0) in
      let c = centroid worst_i in
      let xr = combine c xw (-1.0) in
      let fr = eval xr in
      consider xr fr;
      if fr < fbest then begin
        let xe = combine c xw (-2.0) in
        let fe = eval xe in
        consider xe fe;
        simplex.(worst_i) <- (if fe < fr then (xe, fe) else (xr, fr))
      end
      else if fr < fw then simplex.(worst_i) <- (xr, fr)
      else begin
        let xc = combine c xw 0.5 in
        let fc = eval xc in
        consider xc fc;
        if fc < fw then simplex.(worst_i) <- (xc, fc)
        else begin
          (* Shrink towards the best vertex. *)
          let xb, _ = simplex.(0) in
          Array.iteri
            (fun i (v, _) ->
              if i > 0 then begin
                let shrunk = combine xb v 0.5 in
                let fs = eval shrunk in
                consider shrunk fs;
                simplex.(i) <- (shrunk, fs)
              end)
            simplex
        end
      end
    done
  in
  for _ = 1 to max 1 restarts do
    run_once ()
  done;
  let bp, bt = !best in
  finish bp bt (count ())
