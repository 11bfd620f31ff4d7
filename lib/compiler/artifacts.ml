(* The persistent content-addressed artifact store.

   One entry per verifier report, keyed by an MD5 over everything that
   shapes it — the weight-free structural digest of the virtual
   program ({!Gat_isa.Fingerprint.program}) and the threads per block
   — plus the format version.  The verifier never reads the device,
   the block count or the problem size, so every variant of a code
   class at one TC shares one entry, across runs and across processes.

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

   The hard invariant the codec must preserve: a store-served report
   is bit-identical to a recomputed one. *)

open Gat_isa
module Store = Gat_util.Store

(* The format version participates in the key and in the entry's
   header line, so bumping it orphans every old entry (reclaimed by
   [gat cache gc]). *)
let version = "verdict/1"

let cache =
  Store.create ~name:"artifact store" ~metrics:"artifact" ~site:"artifact"
    ~dir:(fun () -> Filename.concat (Gat_util.Cache_dir.root ()) "artifacts")
    ~suffixes:[ ".art" ]

let verdict_key ~threads_per_block digest =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ version; string_of_int threads_per_block; digest ]))

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

(* ---- verdict: the full safety report ---- *)

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

let read_race cur =
  Store.start cur;
  Store.keyword cur "r";
  let kind =
    match Store.word cur with
    | "WW" -> Gat_analysis.Races.Write_write
    | "RW" -> Gat_analysis.Races.Read_write
    | _ -> Store.bad ()
  in
  Store.end_line cur;
  let first = read_race_access cur in
  let second = read_race_access cur in
  Store.start cur;
  Store.keyword cur "w";
  let witness =
    match Store.word cur with
    | "E" ->
        let i = Store.int cur in
        let j = Store.int cur in
        Store.end_line cur;
        Gat_analysis.Races.Exact (i, j)
    | "M" -> Gat_analysis.Races.May (Store.rest cur)
    | _ -> Store.bad ()
  in
  { Gat_analysis.Races.first; second; kind; witness }

let find_verdict ~key =
  Store.find cache ~header (path key) (fun cur ->
      Store.start cur;
      Store.keyword cur "name";
      let program_name = Store.rest cur in
      Store.start cur;
      Store.keyword cur "report";
      let threads_per_block = Store.int cur in
      let barrier_count = Store.int cur in
      let interval_count = Store.int cur in
      let shared_accesses = Store.int cur in
      Store.end_line cur;
      let divergent_barriers =
        List.init (Store.counted cur "divergent") (fun _ -> read_divergent cur)
      in
      let races = List.init (Store.counted cur "races") (fun _ -> read_race cur) in
      {
        Gat_analysis.Verify.program_name;
        threads_per_block;
        barrier_count;
        interval_count;
        shared_accesses;
        divergent_barriers;
        races;
      })

let store_verdict ~key (r : Gat_analysis.Verify.report) =
  let finding_safe (f : Gat_analysis.Barrier_safety.finding) =
    safe_text f.Gat_analysis.Barrier_safety.block_label
    && List.for_all safe_text f.Gat_analysis.Barrier_safety.branch_labels
  in
  let access_safe (a : Gat_analysis.Races.access) =
    safe_text a.Gat_analysis.Races.block_label
  in
  let race_safe (f : Gat_analysis.Races.finding) =
    access_safe f.Gat_analysis.Races.first
    && access_safe f.Gat_analysis.Races.second
    &&
    match f.Gat_analysis.Races.witness with
    | Gat_analysis.Races.Exact _ -> true
    | Gat_analysis.Races.May m -> not (String.contains m '\n')
  in
  if
    (not (String.contains r.Gat_analysis.Verify.program_name '\n'))
    && List.for_all finding_safe r.Gat_analysis.Verify.divergent_barriers
    && List.for_all race_safe r.Gat_analysis.Verify.races
  then
    Store.store cache ~header (path key) (fun buf ->
        addf buf "name %s\n" r.Gat_analysis.Verify.program_name;
        addf buf "report %d %d %d %d\n" r.Gat_analysis.Verify.threads_per_block
          r.Gat_analysis.Verify.barrier_count
          r.Gat_analysis.Verify.interval_count
          r.Gat_analysis.Verify.shared_accesses;
        addf buf "divergent %d\n"
          (List.length r.Gat_analysis.Verify.divergent_barriers);
        List.iter
          (fun (f : Gat_analysis.Barrier_safety.finding) ->
            addf buf "d %d %s %d %d\n" f.Gat_analysis.Barrier_safety.block_index
              f.Gat_analysis.Barrier_safety.block_label
              f.Gat_analysis.Barrier_safety.instr_index
              (List.length f.Gat_analysis.Barrier_safety.branch_indices);
            Buffer.add_string buf "bi";
            List.iter
              (fun i -> addf buf " %d" i)
              f.Gat_analysis.Barrier_safety.branch_indices;
            Buffer.add_char buf '\n';
            Buffer.add_string buf "bl";
            List.iter
              (fun l -> addf buf " %s" l)
              f.Gat_analysis.Barrier_safety.branch_labels;
            Buffer.add_char buf '\n')
          r.Gat_analysis.Verify.divergent_barriers;
        addf buf "races %d\n" (List.length r.Gat_analysis.Verify.races);
        List.iter
          (fun (f : Gat_analysis.Races.finding) ->
            addf buf "r %s\n"
              (match f.Gat_analysis.Races.kind with
              | Gat_analysis.Races.Write_write -> "WW"
              | Gat_analysis.Races.Read_write -> "RW");
            emit_race_access buf f.Gat_analysis.Races.first;
            emit_race_access buf f.Gat_analysis.Races.second;
            match f.Gat_analysis.Races.witness with
            | Gat_analysis.Races.Exact (i, j) -> addf buf "w E %d %d\n" i j
            | Gat_analysis.Races.May m -> addf buf "w M %s\n" m)
          r.Gat_analysis.Verify.races)
