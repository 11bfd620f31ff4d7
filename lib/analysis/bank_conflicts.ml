type mode = B4 | B8

let mode_of_cc cc =
  match cc with
  | Gat_arch.Compute_capability.Sm35 -> B8
  | Gat_arch.Compute_capability.Sm20 | Gat_arch.Compute_capability.Sm52
  | Gat_arch.Compute_capability.Sm60 ->
      B4

let bank_width_bytes = function B4 -> 4 | B8 -> 8
let banks = 32
let warp_size = 32

let replay_of_stride mode s =
  if s = 0 then 1
  else begin
    let w = bank_width_bytes mode in
    (* Distinct words per bank over one warp; same-word lanes broadcast. *)
    let words_by_bank = Hashtbl.create 64 in
    for k = 0 to warp_size - 1 do
      let word =
        let byte = k * s in
        if byte >= 0 then byte / w else ((byte + 1) / w) - 1
      in
      let bank = ((word mod banks) + banks) mod banks in
      let words =
        Option.value ~default:[] (Hashtbl.find_opt words_by_bank bank)
      in
      if not (List.mem word words) then
        Hashtbl.replace words_by_bank bank (word :: words)
    done;
    Hashtbl.fold (fun _ words acc -> max acc (List.length words)) words_by_bank 1
  end

type conflict = {
  block_index : int;
  block_label : string;
  instr_index : int;
  op : Gat_isa.Opcode.t;
  kind : [ `Load | `Store ];
  tid_stride : Affine.coeff;
  replay : int;
}

let conflicted c = c.replay > 1

let of_sites gpu sites =
  let mode = mode_of_cc gpu.Gat_arch.Gpu.cc in
  List.filter_map
    (fun (s : Affine.access_site) ->
      if not (Gat_isa.Opcode.is_shared_memory s.Affine.op) then None
      else
        let tid = s.Affine.address.Affine.tid in
        let replay =
          match tid with
          | Affine.Known { k = 0; _ } -> 1
          | Affine.Known { k; e = 0 } -> replay_of_stride mode k
          | Affine.Known { e; _ } when e < 0 -> 1
          | Affine.Known _ | Affine.Unknown ->
              (* n-dependent or data-dependent smem stride: assume the
                 worst a 32-bank crossbar can do. *)
              banks
        in
        Some
          {
            block_index = s.Affine.block_index;
            block_label = s.Affine.block_label;
            instr_index = s.Affine.instr_index;
            op = s.Affine.op;
            kind =
              (if Gat_isa.Opcode.is_load s.Affine.op then `Load else `Store);
            tid_stride = tid;
            replay;
          })
    sites
