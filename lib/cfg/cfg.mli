(** Control-flow graph over a virtual-ISA program.

    Nodes are basic blocks identified by their index in the program's
    layout order; the entry block has index 0. *)

type t = {
  program : Gat_isa.Program.t;
  blocks : Gat_isa.Basic_block.t array;
      (** Basic blocks by node index (layout order). *)
  labels : string array;  (** Block labels by node index. *)
  succ : int list array;  (** Successor indices. *)
  pred : int list array;  (** Predecessor indices. *)
}

val of_program : Gat_isa.Program.t -> t

val n_blocks : t -> int
val entry : t -> int
(** Always 0. *)

val index_of : t -> string -> int
(** Node index of a label; raises [Not_found]. *)

val block : t -> int -> Gat_isa.Basic_block.t
(** The basic block at a node index. *)

val reachable : t -> bool array
(** Nodes reachable from the entry. *)

val reverse_postorder : t -> int array
(** Reverse postorder of the reachable subgraph, entry first. *)

val reverse_postorder_of : root:int -> int list array -> int array
(** Reverse postorder of the nodes reachable from [root] in the graph
    given by its successor lists, [root] first; each node's successors
    are visited in list order. *)

val edge_count : t -> int
(** Total number of CFG edges. *)
