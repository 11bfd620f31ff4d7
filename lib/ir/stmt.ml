type loop_kind = Sequential | Parallel

type t =
  | Assign of string * Expr.t
  | Store of string * Expr.t list * Expr.t
  | For of loop
  | If of Expr.t * t list * t list
  | Sync

and loop = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;
  step : int;
  kind : loop_kind;
  body : t list;
}

let for_ ?(kind = Sequential) ?(step = 1) var lo hi body =
  if step < 1 then invalid_arg "Stmt.for_: step must be >= 1";
  For { var; lo; hi; step; kind; body }

let rec map_exprs f stmt =
  match stmt with
  | Assign (v, e) -> Assign (v, f e)
  | Store (a, idxs, e) -> Store (a, List.map f idxs, f e)
  | For l ->
      For
        {
          l with
          lo = f l.lo;
          hi = f l.hi;
          body = List.map (map_exprs f) l.body;
        }
  | If (c, t_branch, e_branch) ->
      If (c |> f, List.map (map_exprs f) t_branch, List.map (map_exprs f) e_branch)
  | Sync -> Sync

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

let rec written_acc acc stmt =
  match stmt with
  | Assign _ | Sync -> acc
  | Store (a, _, _) -> a :: acc
  | For { body; _ } -> List.fold_left written_acc acc body
  | If (_, t_branch, e_branch) ->
      List.fold_left written_acc (List.fold_left written_acc acc t_branch) e_branch

let arrays_written stmts =
  List.fold_left written_acc [] stmts |> List.rev |> dedup

let rec read_acc acc stmt =
  match stmt with
  | Assign (_, e) -> List.rev_append (Expr.arrays_read e) acc
  | Store (a, idxs, e) ->
      ignore a;
      let acc = List.fold_left (fun acc i -> List.rev_append (Expr.arrays_read i) acc) acc idxs in
      List.rev_append (Expr.arrays_read e) acc
  | For { lo; hi; body; _ } ->
      let acc = List.rev_append (Expr.arrays_read lo) acc in
      let acc = List.rev_append (Expr.arrays_read hi) acc in
      List.fold_left read_acc acc body
  | If (c, t_branch, e_branch) ->
      let acc = List.rev_append (Expr.arrays_read c) acc in
      List.fold_left read_acc (List.fold_left read_acc acc t_branch) e_branch
  | Sync -> acc

let arrays_read stmts = List.fold_left read_acc [] stmts |> List.rev |> dedup

let rec count_parallel stmt =
  match stmt with
  | Assign _ | Store _ | Sync -> 0
  | For { kind; body; _ } ->
      (if kind = Parallel then 1 else 0)
      + List.fold_left (fun acc s -> acc + count_parallel s) 0 body
  | If (_, t_branch, e_branch) ->
      List.fold_left (fun acc s -> acc + count_parallel s) 0 t_branch
      + List.fold_left (fun acc s -> acc + count_parallel s) 0 e_branch

let count_parallel_loops stmts =
  List.fold_left (fun acc s -> acc + count_parallel s) 0 stmts

let rec to_string ?(indent = 0) stmt =
  let pad = String.make indent ' ' in
  let block stmts indent =
    String.concat "" (List.map (fun s -> to_string ~indent s ^ "\n") stmts)
  in
  match stmt with
  | Assign (v, e) -> Printf.sprintf "%s%s = %s;" pad v (Expr.to_string e)
  | Store (a, idxs, e) ->
      Printf.sprintf "%s%s%s = %s;" pad a
        (String.concat ""
           (List.map (fun i -> "[" ^ Expr.to_string i ^ "]") idxs))
        (Expr.to_string e)
  | For { var; lo; hi; step; kind; body } ->
      Printf.sprintf "%s%sfor %s = %s .. %s%s {\n%s%s}" pad
        (match kind with Parallel -> "parallel " | Sequential -> "")
        var (Expr.to_string lo) (Expr.to_string hi)
        (if step = 1 then "" else Printf.sprintf " step %d" step)
        (block body (indent + 2))
        pad
  | If (c, t_branch, []) ->
      Printf.sprintf "%sif %s {\n%s%s}" pad (Expr.to_string c)
        (block t_branch (indent + 2))
        pad
  | If (c, t_branch, e_branch) ->
      Printf.sprintf "%sif %s {\n%s%s} else {\n%s%s}" pad (Expr.to_string c)
        (block t_branch (indent + 2))
        pad
        (block e_branch (indent + 2))
        pad
  | Sync -> pad ^ "sync;"
