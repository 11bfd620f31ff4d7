(* The persistent content-addressed artifact store.

   One entry per backend-stage result, keyed by an MD5 over everything
   that shapes the stage's output — the weight-free structural digest
   of the stage's input code ({!Gat_isa.Fingerprint}), the device
   identity ({!Gat_arch.Gpu.identity}) and the stage-relevant scalar
   parameters — plus a per-stage format version.  Because the digests
   exclude the per-block execution weights (the only lowered artifact
   the launch geometry shapes), variants that differ only in TC/BC or
   in the problem size N key identically and share every stored stage
   result, across runs and across processes.  A one-instruction edit
   moves exactly the digests whose inputs changed: unchanged blocks'
   scheduled bodies still hit, so a kernel edit recompiles O(delta),
   not O(space).

   Granularity per stage:
   - [sched]  per basic-block body (the unit of the list scheduler);
   - [ra]     per scheduled program and device;
   - [coal]   per virtual program and device;
   - [verdict] per virtual program and TC (the verifier never reads
              the device or the block count).

   Entries live in one {!Gat_util.Store} under [<cache root>/artifacts/];
   corruption, truncation or a version mismatch reads as a miss, never
   as wrong data, and the stale file is simply overwritten by the next
   store.  I/O failure degrades this store alone: warn once, latch,
   keep computing uncached.  Chaos testing hooks in through the
   [artifact-read] / [artifact-write] fault sites.

   The hard invariant every codec here must preserve: a store-served
   result is bit-identical to a recomputed one.  All floats travel as
   [%h] hex literals (exact round-trip) and instruction streams travel
   as [Instruction.to_string] lines (exact round-trip by the ISA's
   exhaustive test). *)

open Gat_isa
module Store = Gat_util.Store

(* ---- keys ---- *)

(* The per-stage format versions.  A version participates in the key
   and in the entry's header line, so bumping one orphans exactly that
   stage's old entries (reclaimed by [gat cache gc]) and leaves every
   other stage's results valid — the O(delta) story for model
   changes. *)
let versions =
  [ ("sched", "sched/1"); ("ra", "ra/1"); ("coal", "coal/1"); ("verdict", "verdict/1") ]

let cache =
  Store.create ~name:"artifact store" ~metrics:"artifact" ~site:"artifact"
    ~dir:(fun () -> Filename.concat (Gat_util.Cache_dir.root ()) "artifacts")
    ~suffixes:[ ".art" ] ~stages:(List.map fst versions) ()

let key_of_parts stage parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (List.assoc stage versions :: parts)))

let sched_key body = key_of_parts "sched" [ Fingerprint.body body ]

let ra_key ~gpu scheduled =
  key_of_parts "ra" [ Gat_arch.Gpu.identity gpu; Fingerprint.program scheduled ]

(* [digest] is [Fingerprint.program] of the virtual program, computed
   once per compile by the driver. *)
let coal_key ~gpu digest = key_of_parts "coal" [ Gat_arch.Gpu.identity gpu; digest ]

let verdict_key ~threads_per_block digest =
  key_of_parts "verdict" [ string_of_int threads_per_block; digest ]

(* ---- entries ---- *)

let headers =
  List.map (fun (stage, v) -> (stage, "gat-artifact 1\nstage " ^ v ^ "\n")) versions

let path stage key = Store.path cache (stage ^ "-" ^ key ^ ".art")

let find stage ~key parse =
  Store.find cache ~stage ~header:(List.assoc stage headers) (path stage key) parse

let store stage ~key emit =
  Store.store cache ~header:(List.assoc stage headers) (path stage key) emit

let addf buf fmt = Printf.bprintf buf fmt

(* Labels and names travel as words; anything that could not be
   re-read as one word is unstorable (never produced by the lowering,
   which only emits [entry]/[BB<n>] labels — this is belt and
   braces). *)
let safe_text s =
  String.length s > 0
  && not (String.exists (fun c -> c = ' ' || c = '\n') s)

let instr_line cur =
  match Instruction.of_string (Store.line cur) with
  | Some i -> i
  | None -> Store.bad ()

(* ---- sched: one block body ---- *)

let emit_body buf body =
  List.iter
    (fun i ->
      Instruction.add_to_buffer buf i;
      Buffer.add_char buf '\n')
    body

let find_sched ~key =
  find "sched" ~key (fun cur ->
      List.init (Store.counted cur "body") (fun _ -> instr_line cur))

let store_sched ~key body =
  store "sched" ~key (fun buf ->
      addf buf "body %d\n" (List.length body);
      emit_body buf body)

(* ---- terminators (shared by the ra codec) ---- *)

let emit_term buf (t : Basic_block.terminator) =
  match t with
  | Basic_block.Jump l -> addf buf "term jump %s\n" l
  | Basic_block.Cond_branch { pred; if_true; if_false } ->
      addf buf "term cbr %s%s %s %s\n"
        (if pred.Instruction.negated then "!" else "")
        (Register.to_string pred.Instruction.reg)
        if_true if_false
  | Basic_block.Exit -> Buffer.add_string buf "term exit\n"

(* Fields are read in sequence, never inside a record literal or a
   constructor's arguments, whose evaluation order is unspecified. *)
let read_term cur =
  Store.start cur;
  Store.keyword cur "term";
  let term =
    match Store.word cur with
    | "jump" -> Basic_block.Jump (Store.word cur)
    | "exit" -> Basic_block.Exit
    | "cbr" ->
        let p = Store.word cur in
        let negated = p.[0] = '!' in
        let name = if negated then String.sub p 1 (String.length p - 1) else p in
        let reg =
          match Register.of_string name with Some r -> r | None -> Store.bad ()
        in
        let if_true = Store.word cur in
        let if_false = Store.word cur in
        Basic_block.Cond_branch
          { pred = { Instruction.negated; reg }; if_true; if_false }
    | _ -> Store.bad ()
  in
  Store.end_line cur;
  term

(* ---- ra: allocated blocks + stats, weight-free ---- *)

let read_block cur =
  Store.start cur;
  Store.keyword cur "block";
  let label = Store.word cur in
  let n = Store.int cur in
  Store.end_line cur;
  let body = List.init n (fun _ -> instr_line cur) in
  Basic_block.make label body (read_term cur)

let find_ra ~key =
  find "ra" ~key (fun cur ->
      Store.start cur;
      Store.keyword cur "stats";
      let regs_used = Store.int cur in
      let spilled_values = Store.int cur in
      let spill_loads = Store.int cur in
      let spill_stores = Store.int cur in
      let max_pressure = Store.int cur in
      Store.end_line cur;
      let blocks = List.init (Store.counted cur "blocks") (fun _ -> read_block cur) in
      ( blocks,
        { Regalloc.regs_used; spilled_values; spill_loads; spill_stores; max_pressure } ))

let store_ra ~key (p : Program.t) (st : Regalloc.stats) =
  if List.for_all (fun b -> safe_text b.Basic_block.label) p.Program.blocks
  then
    store "ra" ~key (fun buf ->
        addf buf "stats %d %d %d %d %d\n" st.Regalloc.regs_used
          st.Regalloc.spilled_values st.Regalloc.spill_loads
          st.Regalloc.spill_stores st.Regalloc.max_pressure;
        addf buf "blocks %d\n" (List.length p.Program.blocks);
        List.iter
          (fun (b : Basic_block.t) ->
            addf buf "block %s %d\n" b.Basic_block.label
              (List.length b.Basic_block.body);
            emit_body buf b.Basic_block.body;
            emit_term buf b.Basic_block.term)
          p.Program.blocks)

(* ---- affine codecs (shared by coal and verdict) ---- *)

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

(* ---- coal: the per-block memory summary ---- *)

let emit_access buf (a : Gat_analysis.Coalescing.access) =
  addf buf "a %d %s %d %s %s" a.Gat_analysis.Coalescing.block_index
    a.Gat_analysis.Coalescing.block_label a.Gat_analysis.Coalescing.instr_index
    (Opcode.mnemonic a.Gat_analysis.Coalescing.op)
    (match a.Gat_analysis.Coalescing.kind with `Load -> "L" | `Store -> "S");
  (match a.Gat_analysis.Coalescing.pattern with
  | Gat_analysis.Coalescing.Broadcast -> Buffer.add_string buf " B"
  | Gat_analysis.Coalescing.Stride n -> addf buf " S %d" n
  | Gat_analysis.Coalescing.Large c ->
      Buffer.add_string buf " L";
      emit_coeff buf c
  | Gat_analysis.Coalescing.Unknown -> Buffer.add_string buf " U");
  emit_coeff buf a.Gat_analysis.Coalescing.tid_stride;
  emit_coeff buf a.Gat_analysis.Coalescing.iter_stride;
  addf buf " %d %h\n" a.Gat_analysis.Coalescing.segments
    a.Gat_analysis.Coalescing.transactions

let read_access cur =
  Store.start cur;
  Store.keyword cur "a";
  let block_index = Store.int cur in
  let block_label = Store.word cur in
  let instr_index = Store.int cur in
  let op = read_opcode cur in
  let kind =
    match Store.word cur with "L" -> `Load | "S" -> `Store | _ -> Store.bad ()
  in
  let pattern =
    match Store.word cur with
    | "B" -> Gat_analysis.Coalescing.Broadcast
    | "S" -> Gat_analysis.Coalescing.Stride (Store.int cur)
    | "L" -> Gat_analysis.Coalescing.Large (read_coeff cur)
    | "U" -> Gat_analysis.Coalescing.Unknown
    | _ -> Store.bad ()
  in
  let tid_stride = read_coeff cur in
  let iter_stride = read_coeff cur in
  let segments = Store.int cur in
  let transactions = Store.float cur in
  Store.end_line cur;
  {
    Gat_analysis.Coalescing.block_index;
    block_label;
    instr_index;
    op;
    kind;
    pattern;
    tid_stride;
    iter_stride;
    segments;
    transactions;
  }

let read_group cur =
  Store.start cur;
  Store.keyword cur "group";
  let label = Store.word cur in
  let n = Store.int cur in
  Store.end_line cur;
  (label, List.init n (fun _ -> read_access cur))

let find_coal ~key =
  find "coal" ~key (fun cur ->
      List.init (Store.counted cur "groups") (fun _ -> read_group cur))

let store_coal ~key summary =
  if
    List.for_all
      (fun (l, accs) ->
        safe_text l
        && List.for_all
             (fun (a : Gat_analysis.Coalescing.access) ->
               safe_text a.Gat_analysis.Coalescing.block_label)
             accs)
      summary
  then
    store "coal" ~key (fun buf ->
        addf buf "groups %d\n" (List.length summary);
        List.iter
          (fun (label, accs) ->
            addf buf "group %s %d\n" label (List.length accs);
            List.iter (emit_access buf) accs)
          summary)

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
  find "verdict" ~key (fun cur ->
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
    store "verdict" ~key (fun buf ->
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
