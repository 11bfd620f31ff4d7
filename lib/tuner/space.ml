type t = {
  tc : int list;
  bc : int list;
  uif : int list;
  pl : int list;
  sc : int list;
  cflags : bool list;
}

let of_spec spec =
  let ints name fallback =
    match Gat_ir.Tuning_spec.int_values spec name with
    | [] -> fallback
    | vs -> vs
  in
  let cflags =
    match Gat_ir.Tuning_spec.string_values spec "CFLAGS" with
    | [] -> [ false ]
    | vs -> List.map (fun s -> s = "-use_fast_math") vs
  in
  {
    tc = ints "TC" [ 128 ];
    bc = ints "BC" [ 96 ];
    uif = ints "UIF" [ 1 ];
    pl = ints "PL" [ 16 ];
    sc = ints "SC" [ 1 ];
    cflags;
  }

let paper = { (of_spec Gat_ir.Tuning_spec.table_iii) with sc = [ 1 ] }

let cardinality t =
  List.length t.tc * List.length t.bc * List.length t.uif * List.length t.pl
  * List.length t.sc * List.length t.cflags

let points t =
  List.concat_map
    (fun tc ->
      List.concat_map
        (fun bc ->
          List.concat_map
            (fun uif ->
              List.concat_map
                (fun pl ->
                  List.concat_map
                    (fun sc ->
                      List.map
                        (fun fm ->
                          Gat_compiler.Params.make ~threads_per_block:tc
                            ~block_count:bc ~unroll:uif ~l1_pref_kb:pl
                            ~staging:sc ~fast_math:fm ())
                        t.cflags)
                    t.sc)
                t.pl)
            t.uif)
        t.bc)
    t.tc

let mem t (p : Gat_compiler.Params.t) =
  List.mem p.threads_per_block t.tc
  && List.mem p.block_count t.bc
  && List.mem p.unroll t.uif
  && List.mem p.l1_pref_kb t.pl
  && List.mem p.staging t.sc
  && List.mem p.fast_math t.cflags

let with_tc t tc = { t with tc }
let restrict_tc t ~keep = { t with tc = List.filter keep t.tc }

let to_string t =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "TC={%s} BC={%s} UIF={%s} PL={%s} SC={%s} CFLAGS={%s}"
    (ints t.tc) (ints t.bc) (ints t.uif) (ints t.pl) (ints t.sc)
    (String.concat ","
       (List.map (fun b -> if b then "-use_fast_math" else "''") t.cflags))
