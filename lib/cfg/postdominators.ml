type t = { dom : Dominators.t; exit_node : int }

(* Dominators of the reversed graph, rooted at the exit. *)
let compute (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let exit_node =
    let rec find i =
      if i >= n then invalid_arg "Postdominators.compute: no exit block"
      else if cfg.Cfg.succ.(i) = [] then i
      else find (i + 1)
    in
    find 0
  in
  {
    dom = Dominators.of_graph ~root:exit_node ~succ:cfg.Cfg.pred ~pred:cfg.Cfg.succ;
    exit_node;
  }

let exit_node t = t.exit_node
let ipdom t = Dominators.idom t.dom
let postdominates t = Dominators.dominates t.dom
