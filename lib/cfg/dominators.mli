(** Dominator computation (Cooper–Harvey–Kennedy iterative algorithm). *)

type t
(** Dominator tree for a CFG's reachable subgraph. *)

val of_graph : root:int -> succ:int list array -> pred:int list array -> t
(** Dominators of the graph given by its successor and predecessor
    lists (one per node), rooted at [root].  Nodes not reachable from
    [root] have no dominator.  {!Postdominators} passes a CFG's edges
    reversed. *)

val compute : Cfg.t -> t
(** [of_graph] over the CFG's edges, rooted at its entry. *)

val idom : t -> int -> int option
(** Immediate dominator of a node; [None] for the entry and for
    unreachable nodes. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — every path from the entry to [b] passes through
    [a] (reflexive: a node dominates itself).  False when either node is
    unreachable, except [dominates t b b] on a reachable [b]. *)

val dominator_chain : t -> int -> int list
(** Nodes dominating the given node, from itself up to the entry. *)
