type t = {
  program : Gat_isa.Program.t;
  blocks : Gat_isa.Basic_block.t array;
  labels : string array;
  succ : int list array;
  pred : int list array;
}

let of_program (program : Gat_isa.Program.t) =
  let blocks = Array.of_list program.Gat_isa.Program.blocks in
  let n = Array.length blocks in
  let labels = Array.map (fun b -> b.Gat_isa.Basic_block.label) blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  Array.iteri
    (fun i b ->
      let targets =
        List.map (Hashtbl.find index) (Gat_isa.Basic_block.successors b)
      in
      succ.(i) <- targets;
      List.iter (fun j -> pred.(j) <- i :: pred.(j)) targets)
    blocks;
  Array.iteri (fun j ps -> pred.(j) <- List.rev ps) pred;
  { program; blocks; labels; succ; pred }

let n_blocks t = Array.length t.labels
let entry _ = 0

let index_of t label =
  let n = Array.length t.labels in
  let rec go i =
    if i >= n then raise Not_found
    else if t.labels.(i) = label then i
    else go (i + 1)
  in
  go 0

let block t i = t.blocks.(i)

let reachable t =
  let n = n_blocks t in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit t.succ.(i)
    end
  in
  visit 0;
  seen

let reverse_postorder_of ~root succ =
  let seen = Array.make (Array.length succ) false in
  let order = ref [] in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit succ.(i);
      order := i :: !order
    end
  in
  visit root;
  Array.of_list !order

let reverse_postorder t = reverse_postorder_of ~root:0 t.succ

let edge_count t = Array.fold_left (fun acc s -> acc + List.length s) 0 t.succ
