(* The persistent content-addressed artifact store.

   One entry per code class: the verifier's TC-free facts, keyed by an
   MD5 over everything that shapes them — the weight-free structural
   digest of the virtual program ({!Gat_isa.Fingerprint.program}) —
   plus the format version.  The facts never read the TC, the device,
   the block count or the problem size, so every variant of a code
   class shares one entry, across runs and across processes; each
   TC's report is only the race-witness search over it.

   The other backend stages (schedule, register allocation, coalescing
   summary, block table) are recomputed on every class miss: each is
   cheaper to recompute than a sealed write and a read of its result
   (DESIGN.md section 5.8).

   Entries live in one {!Gat_util.Store} under [<cache root>/artifacts/];
   corruption, truncation or a version mismatch reads as a miss, never
   as wrong data, and the stale file is simply overwritten by the next
   store.  I/O failure degrades this store alone: warn once, latch,
   keep computing uncached.  Chaos testing hooks in through the
   [artifact-read] / [artifact-write] fault sites.

   The hard invariant the codec must preserve: store-served facts are
   bit-identical to recomputed ones, so every report over them is too. *)

open Gat_isa
module Store = Gat_util.Store

(* The format version participates in the key and in the entry's
   header line, so bumping it orphans every old entry (reclaimed by
   [gat cache gc]). *)
let version = "verdict/2"

let cache =
  Store.create ~name:"artifact store" ~metrics:"artifact" ~site:"artifact"
    ~dir:(fun () -> Filename.concat (Gat_util.Cache_dir.root ()) "artifacts")
    ~suffixes:[ ".art" ]

let verdict_key digest =
  Digest.to_hex (Digest.string (String.concat "\x00" [ version; digest ]))

let header = "gat-artifact 1\nstage " ^ version ^ "\n"
let path key = Store.path cache ("verdict-" ^ key ^ ".art")

let addf buf fmt = Printf.bprintf buf fmt

(* Labels and names travel as words; anything that could not be
   re-read as one word is unstorable (never produced by the lowering,
   which only emits [entry]/[BB<n>] labels — this is belt and
   braces). *)
let safe_text s =
  String.length s > 0
  && not (String.exists (fun c -> c = ' ' || c = '\n') s)

(* ---- affine, opcode and flag codecs ----

   Fields are read in sequence, never inside a record literal or a
   constructor's arguments, whose evaluation order is unspecified. *)

let emit_coeff buf (c : Gat_analysis.Affine.coeff) =
  match c with
  | Gat_analysis.Affine.Known { k; e } -> addf buf " K %d %d" k e
  | Gat_analysis.Affine.Unknown -> Buffer.add_string buf " U"

let read_coeff cur =
  match Store.word cur with
  | "K" ->
      let k = Store.int cur in
      let e = Store.int cur in
      Gat_analysis.Affine.Known { k; e }
  | "U" -> Gat_analysis.Affine.Unknown
  | _ -> Store.bad ()

let emit_value buf (v : Gat_analysis.Affine.value) =
  (match v.Gat_analysis.Affine.base with
  | Some c -> addf buf " C %d" c
  | None -> Buffer.add_string buf " N");
  addf buf " %d" v.Gat_analysis.Affine.mag;
  emit_coeff buf v.Gat_analysis.Affine.tid;
  emit_coeff buf v.Gat_analysis.Affine.iter

let read_value cur =
  let base =
    match Store.word cur with
    | "C" -> Some (Store.int cur)
    | "N" -> None
    | _ -> Store.bad ()
  in
  let mag = Store.int cur in
  let tid = read_coeff cur in
  let iter = read_coeff cur in
  { Gat_analysis.Affine.base; mag; tid; iter }

let read_opcode cur =
  match Opcode.of_mnemonic (Store.word cur) with
  | Some o -> o
  | None -> Store.bad ()

let read_flag cur =
  match Store.int cur with 0 -> false | 1 -> true | _ -> Store.bad ()

(* ---- verdict: the verifier's TC-free facts ---- *)

let emit_race_access buf (a : Gat_analysis.Races.access) =
  addf buf "a %d %s %d %s %d %d" a.Gat_analysis.Races.block_index
    a.Gat_analysis.Races.block_label a.Gat_analysis.Races.instr_index
    (Opcode.mnemonic a.Gat_analysis.Races.op)
    (if a.Gat_analysis.Races.predicated then 1 else 0)
    (match a.Gat_analysis.Races.stored with Some _ -> 1 | None -> 0);
  emit_value buf a.Gat_analysis.Races.address;
  (match a.Gat_analysis.Races.stored with
  | Some v -> emit_value buf v
  | None -> ());
  Buffer.add_char buf '\n'

let read_race_access cur =
  Store.start cur;
  Store.keyword cur "a";
  let block_index = Store.int cur in
  let block_label = Store.word cur in
  let instr_index = Store.int cur in
  let op = read_opcode cur in
  let predicated = read_flag cur in
  let has_stored = read_flag cur in
  let address = read_value cur in
  let stored = if has_stored then Some (read_value cur) else None in
  Store.end_line cur;
  {
    Gat_analysis.Races.block_index;
    block_label;
    instr_index;
    op;
    address;
    stored;
    predicated;
  }

(* A line of the tag then [n] fields. *)
let read_list cur tag n field =
  Store.start cur;
  Store.keyword cur tag;
  let l = List.init n (fun _ -> field cur) in
  Store.end_line cur;
  l

let read_divergent cur =
  Store.start cur;
  Store.keyword cur "d";
  let block_index = Store.int cur in
  let block_label = Store.word cur in
  let instr_index = Store.int cur in
  let n = Store.int cur in
  Store.end_line cur;
  let branch_indices = read_list cur "bi" n Store.int in
  let branch_labels = read_list cur "bl" n Store.word in
  {
    Gat_analysis.Barrier_safety.block_index;
    block_label;
    instr_index;
    branch_indices;
    branch_labels;
  }

let read_pair cur =
  Store.start cur;
  Store.keyword cur "p";
  let pair_kind =
    match Store.word cur with
    | "WW" -> Gat_analysis.Races.Write_write
    | "RW" -> Gat_analysis.Races.Read_write
    | _ -> Store.bad ()
  in
  Store.end_line cur;
  let pair_first = read_race_access cur in
  let pair_second = read_race_access cur in
  { Gat_analysis.Races.pair_first; pair_second; pair_kind }

let find_verdict ~key =
  Store.find cache ~header (path key) (fun cur ->
      Store.start cur;
      Store.keyword cur "name";
      let name = Store.rest cur in
      Store.start cur;
      Store.keyword cur "facts";
      let barriers = Store.int cur in
      let accesses = Store.int cur in
      Store.end_line cur;
      let divergent =
        List.init (Store.counted cur "divergent") (fun _ -> read_divergent cur)
      in
      let candidates =
        List.init (Store.counted cur "pairs") (fun _ -> read_pair cur)
      in
      { Gat_analysis.Verify.name; barriers; accesses; divergent; candidates })

let store_verdict ~key (f : Gat_analysis.Verify.facts) =
  let finding_safe (d : Gat_analysis.Barrier_safety.finding) =
    safe_text d.Gat_analysis.Barrier_safety.block_label
    && List.for_all safe_text d.Gat_analysis.Barrier_safety.branch_labels
  in
  let pair_safe (p : Gat_analysis.Races.pair) =
    safe_text p.Gat_analysis.Races.pair_first.Gat_analysis.Races.block_label
    && safe_text p.Gat_analysis.Races.pair_second.Gat_analysis.Races.block_label
  in
  if
    (not (String.contains f.Gat_analysis.Verify.name '\n'))
    && List.for_all finding_safe f.Gat_analysis.Verify.divergent
    && List.for_all pair_safe f.Gat_analysis.Verify.candidates
  then
    Store.store cache ~header (path key) (fun buf ->
        addf buf "name %s\n" f.Gat_analysis.Verify.name;
        addf buf "facts %d %d\n" f.Gat_analysis.Verify.barriers
          f.Gat_analysis.Verify.accesses;
        addf buf "divergent %d\n" (List.length f.Gat_analysis.Verify.divergent);
        List.iter
          (fun (d : Gat_analysis.Barrier_safety.finding) ->
            addf buf "d %d %s %d %d\n" d.Gat_analysis.Barrier_safety.block_index
              d.Gat_analysis.Barrier_safety.block_label
              d.Gat_analysis.Barrier_safety.instr_index
              (List.length d.Gat_analysis.Barrier_safety.branch_indices);
            Buffer.add_string buf "bi";
            List.iter
              (fun i -> addf buf " %d" i)
              d.Gat_analysis.Barrier_safety.branch_indices;
            Buffer.add_char buf '\n';
            Buffer.add_string buf "bl";
            List.iter
              (fun l -> addf buf " %s" l)
              d.Gat_analysis.Barrier_safety.branch_labels;
            Buffer.add_char buf '\n')
          f.Gat_analysis.Verify.divergent;
        addf buf "pairs %d\n" (List.length f.Gat_analysis.Verify.candidates);
        List.iter
          (fun (p : Gat_analysis.Races.pair) ->
            addf buf "p %s\n"
              (match p.Gat_analysis.Races.pair_kind with
              | Gat_analysis.Races.Write_write -> "WW"
              | Gat_analysis.Races.Read_write -> "RW");
            emit_race_access buf p.Gat_analysis.Races.pair_first;
            emit_race_access buf p.Gat_analysis.Races.pair_second)
          f.Gat_analysis.Verify.candidates)
