type array_decl = { array_name : string; elem : Dtype.t; dims : int }

type t = {
  name : string;
  description : string;
  arrays : array_decl list;
  body : Stmt.t list;
}

let array_decl ?(elem = Dtype.F32) array_name dims =
  if dims < 1 || dims > 3 then
    invalid_arg "Kernel.array_decl: dims must be 1, 2 or 3";
  { array_name; elem; dims }

let validate ~name ~arrays body =
  let fail msg = invalid_arg (Printf.sprintf "Kernel %s: %s" name msg) in
  let top_level_parallel =
    List.length
      (List.filter
         (function Stmt.For { kind = Stmt.Parallel; _ } -> true | _ -> false)
         body)
  in
  let total_parallel = Stmt.count_parallel_loops body in
  if total_parallel <> 1 then fail "kernel needs exactly one parallel loop";
  if top_level_parallel <> 1 then fail "the parallel loop must be top-level";
  let declared = List.map (fun a -> a.array_name) arrays in
  let check_declared kind names =
    List.iter
      (fun a ->
        if not (List.mem a declared) then
          fail (Printf.sprintf "%s array %s is not declared" kind a))
      names
  in
  check_declared "read" (Stmt.arrays_read body);
  check_declared "written" (Stmt.arrays_written body);
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  match dup declared with
  | Some a -> fail (Printf.sprintf "array %s declared twice" a)
  | None -> ()

let make ~name ~description ~arrays body =
  validate ~name ~arrays body;
  { name; description; arrays; body }

let parallel_loop t =
  let is_parallel = function
    | Stmt.For ({ kind = Stmt.Parallel; _ } as l) -> Some l
    | _ -> None
  in
  match List.filter_map is_parallel t.body with
  | [ l ] -> l
  | _ -> assert false (* enforced by [make] *)

let find_array t name = List.find (fun a -> a.array_name = name) t.arrays

let to_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "kernel %s // %s\n" t.name t.description);
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "  array %s: %s%s\n" a.array_name
           (Dtype.to_string a.elem)
           (String.concat "" (List.init a.dims (fun _ -> "[N]")))))
    t.arrays;
  List.iter
    (fun s ->
      Buffer.add_string buf (Stmt.to_string ~indent:2 s);
      Buffer.add_char buf '\n')
    t.body;
  Buffer.contents buf
