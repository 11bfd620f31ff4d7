type t = { idoms : int array; reachable : bool array }

(* Cooper, Harvey & Kennedy, "A simple, fast dominance algorithm". *)
let of_graph ~root ~(succ : int list array) ~(pred : int list array) =
  let n = Array.length succ in
  let rpo = Cfg.reverse_postorder_of ~root succ in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun order node -> rpo_index.(node) <- order) rpo;
  let reachable = Array.map (fun x -> x >= 0) rpo_index in
  let idoms = Array.make n (-1) in
  idoms.(root) <- root;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idoms.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idoms.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun node ->
        if node <> root then begin
          let preds =
            List.filter (fun p -> reachable.(p) && idoms.(p) >= 0) pred.(node)
          in
          match preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idoms.(node) <> new_idom then begin
                idoms.(node) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  { idoms; reachable }

let compute cfg =
  of_graph ~root:(Cfg.entry cfg) ~succ:cfg.Cfg.succ ~pred:cfg.Cfg.pred

let idom t node =
  if node < 0 || node >= Array.length t.idoms then None
  else if not t.reachable.(node) then None
  else if t.idoms.(node) = node then None
  else Some t.idoms.(node)

let dominates t a b =
  let n = Array.length t.idoms in
  if a < 0 || b < 0 || a >= n || b >= n then false
  else if not (t.reachable.(a) && t.reachable.(b)) then false
  else begin
    let rec climb node =
      if node = a then true
      else if t.idoms.(node) = node then false
      else climb t.idoms.(node)
    in
    climb b
  end

let dominator_chain t node =
  if node < 0 || node >= Array.length t.idoms || not t.reachable.(node) then []
  else begin
    let rec go acc node =
      if t.idoms.(node) = node then List.rev (node :: acc)
      else go (node :: acc) t.idoms.(node)
    in
    go [] node
  end
