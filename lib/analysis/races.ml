open Gat_isa

type access = {
  block_index : int;
  block_label : string;
  instr_index : int;
  op : Opcode.t;
  address : Affine.value;
  stored : Affine.value option;
  predicated : bool;
}

type kind = Write_write | Read_write

type witness = Exact of int * int | May of string

type finding = { first : access; second : access; kind : kind; witness : witness }

type pair = { pair_first : access; pair_second : access; pair_kind : kind }

(* Walk every block with the affine environment live (the same walk
   {!Affine.memory_sites} does) and capture each LDS/STS with the
   abstract value of its address and, for stores, of the operand
   stored. *)
let shared_accesses cfg =
  let affine = Affine.analyze cfg in
  let sites = Affine.memory_sites cfg affine in
  let shared_sites =
    List.filter
      (fun (s : Affine.access_site) -> Opcode.is_shared_memory s.Affine.op)
      sites
  in
  (* [memory_sites] does not evaluate non-address operands, so re-walk
     the owning blocks for the stored values of the STS sites. *)
  List.map
    (fun (s : Affine.access_site) ->
      let block = Gat_cfg.Cfg.block cfg s.Affine.block_index in
      let env = ref (Affine.block_entry affine s.Affine.block_index) in
      let eval o = Affine.eval_operand !env o in
      let stored = ref None in
      let predicated = ref false in
      List.iteri
        (fun idx (ins : Instruction.t) ->
          if idx = s.Affine.instr_index then begin
            predicated := ins.Instruction.pred <> None;
            if not (Opcode.is_load ins.Instruction.op) then
              stored :=
                List.find_map
                  (function
                    | Operand.Addr _ -> None
                    | o -> Some (eval o))
                  ins.Instruction.srcs
          end;
          if idx < s.Affine.instr_index then env := Affine.transfer !env ins)
        block.Basic_block.body;
      {
        block_index = s.Affine.block_index;
        block_label = s.Affine.block_label;
        instr_index = s.Affine.instr_index;
        op = s.Affine.op;
        address = s.Affine.address;
        stored = !stored;
        predicated = !predicated;
      })
    shared_sites

(* ---- the two-thread overlap check ---- *)

let access_bytes = 4

(* Same known constant stored by both: every interleaving of the two
   stores leaves identical bytes, so the write-write pair is benign.
   This is exactly the compiler's staging prologue (all threads store
   literal 0). *)
let benign_same_value a b =
  match (a.stored, b.stored) with
  | Some va, Some vb ->
      Affine.is_const va && Affine.is_const vb && va.Affine.base = vb.Affine.base
  | _ -> false

let coeff_known_deg0 = function
  | Affine.Known { k; e = 0 } -> Some k
  | Affine.Known { k = 0; _ } -> Some 0
  | _ -> None

(* Exact witness search for straight-line addresses [b + s·t]: two
   distinct threads in [0, TC) whose accesses overlap within the
   4-byte access width.  Linear in TC: for each t1 only a constant
   window of t2 candidates can land within the width. *)
let exact_witness ~tc b1 s1 b2 s2 =
  let overlap t1 t2 =
    t1 <> t2 && t1 >= 0 && t1 < tc && t2 >= 0 && t2 < tc
    && abs (b1 + (s1 * t1) - b2 - (s2 * t2)) < access_bytes
  in
  if s1 = 0 && s2 = 0 then
    if tc >= 2 && abs (b1 - b2) < access_bytes then Some (0, 1) else None
  else if s2 = 0 then
    (* b1 + s1·t1 must land on the fixed address b2. *)
    let found = ref None in
    let t1 = ref 0 in
    while !found = None && !t1 < tc do
      (if overlap !t1 (if !t1 = 0 then 1 else 0) then
         found := Some (!t1, if !t1 = 0 then 1 else 0));
      incr t1
    done;
    !found
  else begin
    let found = ref None in
    let t1 = ref 0 in
    while !found = None && !t1 < tc do
      let target = b1 + (s1 * !t1) - b2 in
      (* t2 candidates with |target - s2·t2| < width cluster around
         target/s2; check a window wide enough for any |s2| >= 1. *)
      let q = target / s2 in
      let lo = q - access_bytes and hi = q + access_bytes in
      let t2 = ref lo in
      while !found = None && !t2 <= hi do
        if overlap !t1 !t2 then found := Some (!t1, !t2);
        incr t2
      done;
      incr t1
    done;
    !found
  end

(* Loop-carried addresses [b + s·t + u·j], j >= 0 unbounded: collapse
   the iteration axis with a congruence mod g = gcd(u1, u2).  The
   reachable per-thread residues of [s·t mod g] form the subgroup
   generated by gcd(s, g) once TC >= g, so the pair may collide when
   some multiple of gcd(gcd(s1,g), gcd(s2,g)) shifts the base
   difference into the overlap window mod g.  Conservative in both j
   and the t1 <> t2 side condition. *)
let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let loop_carried_may_overlap b1 s1 u1 b2 s2 u2 =
  let g = gcd u1 u2 in
  if g = 0 then assert false
  else begin
    let step = gcd (gcd s1 g) (gcd s2 g) in
    let step = if step = 0 then g else step in
    let d = ((b1 - b2) mod g + g) mod g in
    let hit = ref false in
    let k = ref 0 in
    while (not !hit) && !k * step < g do
      let r = (d + (!k * step)) mod g in
      if r < access_bytes || g - r < access_bytes then hit := true;
      incr k
    done;
    !hit
  end

let pair_witness ~tc a b =
  let va = a.address and vb = b.address in
  match (va.Affine.tid, vb.Affine.tid) with
  | Affine.Unknown, _ | _, Affine.Unknown ->
      Some (May "unresolved per-lane stride")
  | ta, tb -> (
      match (coeff_known_deg0 ta, coeff_known_deg0 tb) with
      | Some s1, Some s2 -> (
          match (va.Affine.base, vb.Affine.base) with
          | Some b1, Some b2 -> (
              let iter_of v =
                match v.Affine.iter with
                | Affine.Known { k = 0; _ } -> Some 0
                | Affine.Known { k; e = 0 } -> Some k
                | _ -> None
              in
              match (iter_of va, iter_of vb) with
              | Some 0, Some 0 ->
                  Option.map (fun (t1, t2) -> Exact (t1, t2))
                    (exact_witness ~tc b1 s1 b2 s2)
              | Some u1, Some u2 ->
                  if loop_carried_may_overlap b1 s1 u1 b2 s2 u2 then
                    Some
                      (May
                         (Printf.sprintf
                            "loop-carried strides %d and %d can collide"
                            u1 u2))
                  else None
              | _ -> Some (May "unresolved iteration stride"))
          | _ ->
              (* At least one base is an unknown uniform; two unknown
                 uniforms cannot be proved distinct addresses. *)
              Some (May "unresolved base address"))
      | _ -> Some (May "per-lane stride scales with n"))

(* The TC-free half of the check: every same-phase pair with a store,
   minus the benign same-constant store pairs.  Only the witness search
   below reads TC. *)
let candidates intervals accesses =
  let accesses = Array.of_list accesses in
  let pairs = ref [] in
  let n = Array.length accesses in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = accesses.(i) and b = accesses.(j) in
      let a_store = not (Opcode.is_load a.op) in
      let b_store = not (Opcode.is_load b.op) in
      if
        (a_store || b_store)
        && Gat_cfg.Intervals.may_share_phase intervals
             (a.block_index, a.instr_index)
             (b.block_index, b.instr_index)
        && not (a_store && b_store && benign_same_value a b)
      then
        let kind = if a_store && b_store then Write_write else Read_write in
        pairs := { pair_first = a; pair_second = b; pair_kind = kind } :: !pairs
    done
  done;
  List.rev !pairs

let witnesses ~threads_per_block pairs =
  List.filter_map
    (fun p ->
      Option.map
        (fun witness ->
          { first = p.pair_first; second = p.pair_second; kind = p.pair_kind; witness })
        (pair_witness ~tc:threads_per_block p.pair_first p.pair_second))
    pairs

(* ---- rendering ---- *)

let address_to_string (v : Affine.value) =
  let base =
    match v.Affine.base with Some c -> string_of_int c | None -> "u"
  in
  let term coeff var =
    match coeff with
    | Affine.Known { k = 0; _ } -> ""
    | c -> Printf.sprintf " + %s\xc2\xb7%s" (Affine.coeff_to_string c) var
  in
  base ^ term v.Affine.tid "t" ^ term v.Affine.iter "j"

let access_to_string a =
  Printf.sprintf "%s%s shared[%s] at %s+%d"
    (Opcode.mnemonic a.op)
    (if a.predicated then " (guarded)" else "")
    (address_to_string a.address)
    a.block_label a.instr_index

let kind_to_string = function
  | Write_write -> "write-write"
  | Read_write -> "read-write"

let finding_to_string ~threads_per_block f =
  let w =
    match f.witness with
    | Exact (t1, t2) ->
        Printf.sprintf "threads %d and %d at TC=%d" t1 t2 threads_per_block
    | May reason -> Printf.sprintf "may race (%s)" reason
  in
  Printf.sprintf "%s: %s <-> %s: %s" (kind_to_string f.kind)
    (access_to_string f.first) (access_to_string f.second) w
