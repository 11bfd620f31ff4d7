(* Tests for the content-addressed artifact store: golden key
   stability, stage round-trips, BC-plane sharing across simulated
   processes, bit-identity of store-served sweeps, corruption
   tolerance, and the LRU gc. *)

(* Everything below must run against a private scratch directory, never
   the user's real cache. *)
let scratch =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-test-artifacts-%d" (Unix.getpid ()))
  in
  Unix.putenv "GAT_CACHE_DIR" d;
  d

module Artifacts = Gat_compiler.Artifacts
module Artifact_store = Gat_tuner.Artifact_store
module Store = Gat_util.Store
module Fingerprint = Gat_isa.Fingerprint
module Params = Gat_compiler.Params
module Space = Gat_tuner.Space
module Variant = Gat_tuner.Variant

(* The sweep-level cache would satisfy warm sweeps wholesale and hide
   the per-stage store behavior under test. *)
let () = Store.set_enabled Gat_tuner.Disk_cache.cache false

let kernel = Gat_workloads.Workloads.atax
let gpu = Gat_arch.Gpu.k20

let baseline = ref (Store.stats Artifacts.cache)

let reset () =
  Store.set_enabled Artifacts.cache true;
  ignore (Store.clear Artifacts.cache);
  baseline := Store.stats Artifacts.cache;
  Gat_tuner.Tuner.clear_cache ()

(* The store's counters since the last [reset]. *)
let stats () =
  let s = Store.stats Artifacts.cache and b = !baseline in
  {
    Store.hits = s.Store.hits - b.Store.hits;
    misses = s.Store.misses - b.Store.misses;
    stores = s.Store.stores - b.Store.stores;
  }

let compiled = lazy (Gat_compiler.Driver.compile_exn kernel gpu Params.default)
let vp () = (Lazy.force compiled).Gat_compiler.Driver.ptx
let physical () = (Lazy.force compiled).Gat_compiler.Driver.program

(* ---- golden keys ----

   Pinned digests for a fixed kernel, device and parameter set.  These
   move only when the fingerprint definition, a stage's key inputs, or
   a stage format version changes — all deliberate, documented events
   (DESIGN.md section 5.8).  Anything else moving them is an
   accidental cache-invalidation bug: every store entry in every
   user's cache would silently orphan. *)

let test_golden_keys () =
  let p = vp () in
  let got =
    [
      ("program fingerprint", Fingerprint.program p);
      ( "sched key",
        Artifacts.sched_key (List.hd p.Gat_isa.Program.blocks).Gat_isa.Basic_block.body );
      ("ra key", Artifacts.ra_key ~gpu (physical ()));
      ("coal key", Artifacts.coal_key ~gpu (Fingerprint.program p));
      ( "verdict key",
        Artifacts.verdict_key ~threads_per_block:128 (Fingerprint.program p) );
    ]
  in
  let want =
    [
      ("program fingerprint", "133774d54218b7a5eb6218242fd5a562");
      ("sched key", "6bb3eba7b5faf821515deb9b23e30479");
      ("ra key", "534dca5591227e5fd39c000d8b856c35");
      ("coal key", "47b43226609fa1b2b7ce2c676610aedc");
      ("verdict key", "39ac2ff361dab7fbcaf28a82a2675617");
    ]
  in
  Alcotest.(check (list (pair string string))) "pinned digests" want got

let test_keys_weight_free () =
  (* Same code at a different launch geometry: every weight-free key
     must be unchanged; the verdict key still reads TC. *)
  let c1 = Lazy.force compiled in
  let params2 = Params.make ~threads_per_block:512 ~block_count:24 () in
  let c2 = Gat_compiler.Driver.compile_exn kernel gpu params2 in
  let p1 = c1.Gat_compiler.Driver.ptx and p2 = c2.Gat_compiler.Driver.ptx in
  let d1 = Fingerprint.program p1 and d2 = Fingerprint.program p2 in
  Alcotest.(check string) "fingerprint ignores TC/BC" d1 d2;
  Alcotest.(check string) "coal key ignores TC/BC" (Artifacts.coal_key ~gpu d1)
    (Artifacts.coal_key ~gpu d2);
  Alcotest.(check bool) "verdict key reads TC" false
    (Artifacts.verdict_key ~threads_per_block:128 d1
    = Artifacts.verdict_key ~threads_per_block:512 d1);
  Alcotest.(check bool) "ra key reads the device" false
    (Artifacts.ra_key ~gpu p1 = Artifacts.ra_key ~gpu:Gat_arch.Gpu.p100 p1)

(* The instruction printer as it was before it wrote into the caller's
   buffer: one string per register, operand and instruction.  The
   fingerprint must hash exactly these bytes, or every key in every
   user's cache would move. *)
let reference_fingerprint (p : Gat_isa.Program.t) =
  let open Gat_isa in
  let reg (r : Register.t) =
    match r.Register.cls with
    | Register.Gpr -> Printf.sprintf "R%d" r.Register.id
    | Register.Pred -> Printf.sprintf "P%d" r.Register.id
  in
  let operand = function
    | Operand.Reg r -> reg r
    | Operand.Imm i -> string_of_int i
    | Operand.FImm f -> Printf.sprintf "%h" f
    | Operand.Special s -> Operand.special_to_string s
    | Operand.Addr { space; base; offset } ->
        if offset = 0 then
          Printf.sprintf "[%s:%s]" (Operand.space_to_string space) (reg base)
        else
          Printf.sprintf "[%s:%s+%d]" (Operand.space_to_string space) (reg base)
            offset
  in
  let instruction (t : Instruction.t) =
    let pred =
      match t.Instruction.pred with
      | Some { negated; reg = r } ->
          Printf.sprintf "@%s%s " (if negated then "!" else "") (reg r)
      | None -> ""
    in
    let mnemonic =
      match t.Instruction.cmp with
      | None -> Opcode.mnemonic t.Instruction.op
      | Some c -> Opcode.mnemonic t.Instruction.op ^ "." ^ Instruction.cmp_name c
    in
    let operands =
      (match t.Instruction.dst with Some r -> [ reg r ] | None -> [])
      @ List.map operand t.Instruction.srcs
    in
    pred ^ mnemonic
    ^ if operands = [] then "" else " " ^ String.concat ", " operands
  in
  let term = function
    | Basic_block.Jump l -> "jump " ^ l
    | Basic_block.Cond_branch { pred; if_true; if_false } ->
        Printf.sprintf "cbr %s%s %s %s"
          (if pred.Instruction.negated then "!" else "")
          (reg pred.Instruction.reg) if_true if_false
    | Basic_block.Exit -> "exit"
  in
  let lines =
    Printf.sprintf "program %s %s %d %d %d" p.Program.name
      (Gat_arch.Compute_capability.to_string p.Program.target)
      p.Program.regs_per_thread p.Program.smem_static p.Program.smem_dynamic
    :: List.concat_map
         (fun (b : Basic_block.t) ->
           (("block " ^ b.Basic_block.label)
           :: List.map instruction b.Basic_block.body)
           @ [ term b.Basic_block.term ])
         p.Program.blocks
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun l -> l ^ "\n") lines)))

(* Every 128th point of the paper space, compiled for every bundled
   kernel on every device. *)
let sampled_compiles () =
  let points = List.filteri (fun i _ -> i mod 128 = 0) (Space.points Space.paper) in
  List.concat_map
    (fun k ->
      List.concat_map
        (fun g ->
          List.filter_map
            (fun params -> Result.to_option (Gat_compiler.Driver.compile k g params))
            points)
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all

let test_fingerprint_matches_reference () =
  let compiles = sampled_compiles () in
  Alcotest.(check bool) "sample compiled" true (List.length compiles > 100);
  List.iter
    (fun (c : Gat_compiler.Driver.compiled) ->
      List.iter
        (fun (form, p) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s %s %s" c.Gat_compiler.Driver.kernel.Gat_ir.Kernel.name
               c.Gat_compiler.Driver.gpu.Gat_arch.Gpu.name
               (Params.to_string c.Gat_compiler.Driver.params)
               form)
            (reference_fingerprint p) (Fingerprint.program p))
        [ ("ptx", c.Gat_compiler.Driver.ptx); ("program", c.Gat_compiler.Driver.program) ])
    compiles

let test_compiled_digest () =
  List.iter
    (fun k ->
      let c = Gat_compiler.Driver.compile_exn k gpu Params.default in
      Alcotest.(check string) k.Gat_ir.Kernel.name
        (Fingerprint.program c.Gat_compiler.Driver.ptx)
        c.Gat_compiler.Driver.digest)
    Gat_workloads.Workloads.all

(* ---- stage round-trip ---- *)

let test_sched_roundtrip () =
  reset ();
  let body = (List.hd (vp ()).Gat_isa.Program.blocks).Gat_isa.Basic_block.body in
  let key = Artifacts.sched_key body in
  Alcotest.(check bool) "miss before store" true (Artifacts.find_sched ~key = None);
  Artifacts.store_sched ~key body;
  (match Artifacts.find_sched ~key with
  | None -> Alcotest.fail "stored schedule not found"
  | Some loaded ->
      Alcotest.(check (list string)) "instructions identical"
        (List.map Gat_isa.Instruction.to_string body)
        (List.map Gat_isa.Instruction.to_string loaded));
  let s = stats () in
  Alcotest.(check int) "one store" 1 s.Store.stores;
  Alcotest.(check int) "one hit" 1 s.Store.hits;
  Alcotest.(check int) "one miss" 1 s.Store.misses

let test_disabled_is_inert () =
  reset ();
  Store.set_enabled Artifacts.cache false;
  let body = (List.hd (vp ()).Gat_isa.Program.blocks).Gat_isa.Basic_block.body in
  let key = Artifacts.sched_key body in
  Artifacts.store_sched ~key body;
  Alcotest.(check bool) "no find when disabled" true
    (Artifacts.find_sched ~key = None);
  let files, _ = Store.disk_usage Artifacts.cache in
  Alcotest.(check int) "no file written" 0 files;
  let s = stats () in
  Alcotest.(check int) "no counters touched" 0
    (s.Store.hits + s.Store.misses + s.Store.stores);
  Store.set_enabled Artifacts.cache true

(* ---- sweeps: sharing and bit-identity ---- *)

let small_space =
  {
    Space.tc = [ 64; 128 ];
    bc = [ 32; 64 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

let check_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_variants_identical first second =
  Alcotest.(check int) "variant count" (List.length first) (List.length second);
  List.iter2
    (fun (a : Variant.t) (b : Variant.t) ->
      Alcotest.(check int) "params equal" 0 (Params.compare a.Variant.params b.Variant.params);
      check_bits "time_ms" a.Variant.time_ms b.Variant.time_ms;
      check_bits "occupancy" a.Variant.occupancy b.Variant.occupancy;
      Alcotest.(check int) "registers" a.Variant.registers b.Variant.registers;
      List.iter2
        (fun (ma : Gat_core.Imix.t) (mb : Gat_core.Imix.t) ->
          Array.iteri
            (fun i v -> check_bits "mix" v mb.Gat_core.Imix.per_category.(i))
            ma.Gat_core.Imix.per_category;
          check_bits "reg_operands" ma.Gat_core.Imix.reg_operands
            mb.Gat_core.Imix.reg_operands)
        [ a.Variant.dynamic_mix; a.Variant.est_mix ]
        [ b.Variant.dynamic_mix; b.Variant.est_mix ])
    first second

let test_store_served_sweep_identical () =
  reset ();
  (* "Process one": cold — every stage computed and persisted. *)
  let first =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3
  in
  (* "Process two": in-memory caches empty, artifact tree intact.  The
     hard invariant: the store-served sweep is bit-identical, and no
     stage is recomputed. *)
  Gat_tuner.Tuner.clear_cache ();
  let before = Store.stats Artifacts.cache in
  let second =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3
  in
  let after = Store.stats Artifacts.cache in
  check_variants_identical first second;
  Alcotest.(check int) "no artifact misses on the warm sweep" 0
    (after.Store.misses - before.Store.misses);
  Alcotest.(check bool) "artifact hits cover the warm sweep" true
    (after.Store.hits - before.Store.hits > 0)

let test_identical_across_kernels_and_gpus () =
  reset ();
  (* The same invariant over every bundled workload on every device:
     a tiny space keeps the product fast. *)
  let tiny =
    { small_space with Space.tc = [ 64; 128 ]; bc = [ 32 ]; uif = [ 1 ] }
  in
  List.iter
    (fun k ->
      List.iter
        (fun g ->
          Gat_tuner.Tuner.clear_cache ();
          let first =
            Gat_tuner.Tuner.sweep ~space:tiny ~jobs:1 k g ~n:64 ~seed:5
          in
          Gat_tuner.Tuner.clear_cache ();
          let before = Store.stats Artifacts.cache in
          let second =
            Gat_tuner.Tuner.sweep ~space:tiny ~jobs:1 k g ~n:64 ~seed:5
          in
          let after = Store.stats Artifacts.cache in
          check_variants_identical first second;
          Alcotest.(check int)
            (Printf.sprintf "%s on %s: warm sweep all store-served"
               k.Gat_ir.Kernel.name g.Gat_arch.Gpu.name)
            0
            (after.Store.misses - before.Store.misses))
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all

let test_bc_plane_shared_across_processes () =
  reset ();
  (* Sweep at BC=32 only, then a "new process" sweeps the BC=64 plane
     (and a new problem size): everything downstream of scheduling is
     weight-free, so the second sweep must be all hits. *)
  let bc32 = { small_space with Space.bc = [ 32 ] } in
  let bc64 = { small_space with Space.bc = [ 64 ] } in
  ignore (Gat_tuner.Tuner.sweep ~space:bc32 ~jobs:1 kernel gpu ~n:64 ~seed:3);
  Gat_tuner.Tuner.clear_cache ();
  let before = Store.stats Artifacts.cache in
  ignore (Gat_tuner.Tuner.sweep ~space:bc64 ~jobs:1 kernel gpu ~n:128 ~seed:3);
  let after = Store.stats Artifacts.cache in
  Alcotest.(check int) "BC-only variants recompute nothing" 0
    (after.Store.misses - before.Store.misses);
  Alcotest.(check bool) "served from the BC=32 plane's artifacts" true
    (after.Store.hits - before.Store.hits > 0)

(* Workloads.atax with one edit: tmp starts at 1e-9 instead of 0.0. *)
let atax_edited =
  let edit = function Gat_ir.Expr.Float 0.0 -> Gat_ir.Expr.Float 1e-9 | e -> e in
  let body = List.map (Gat_ir.Stmt.map_exprs edit) kernel.Gat_ir.Kernel.body in
  { kernel with Gat_ir.Kernel.body }

let sched_counters () =
  let v name =
    Option.value ~default:0
      (List.assoc_opt name (Gat_util.Metrics.counters_snapshot ()))
  in
  (v "artifact.sched.hits", v "artifact.sched.misses")

let test_edit_resweeps_delta () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  (* A "new process" sweeping the edited kernel: in-memory caches gone,
     the artifact tree still on disk. *)
  Gat_tuner.Tuner.clear_cache ();
  let h0, m0 = sched_counters () in
  ignore
    (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 atax_edited gpu ~n:64 ~seed:3);
  let h1, m1 = sched_counters () in
  let rescheduled = m1 - m0 and lookups = h1 - h0 + (m1 - m0) in
  (* O(delta): the edit is noticed (some block rescheduled) and
     contained (the untouched blocks served from the store). *)
  Alcotest.(check bool) "the edited block is rescheduled" true (rescheduled > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d block lookups rescheduled" rescheduled lookups)
    true (rescheduled < lookups)

(* ---- corruption (QCheck) ----

   Every truncation and single-byte corruption of a stored entry must
   read as a miss (or, when the mutation writes back the original
   byte, an unchanged hit) — never a wrong hit, never an exception. *)

let ra_entry =
  lazy
    (reset ();
     let c = Lazy.force compiled in
     let key = Artifacts.ra_key ~gpu c.Gat_compiler.Driver.program in
     Artifacts.store_ra ~key c.Gat_compiler.Driver.program
       c.Gat_compiler.Driver.alloc_stats;
     let path = Filename.concat (Store.dir Artifacts.cache) ("ra-" ^ key ^ ".art") in
     Alcotest.(check bool) "ra entry on disk" true (Sys.file_exists path);
     (key, path, In_channel.with_open_bin path In_channel.input_all))

let find_mutated mutated =
  let key, path, whole = Lazy.force ra_entry in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mutated);
  match Artifacts.find_ra ~key with
  | exception e ->
      Alcotest.failf "find_ra raised on corrupted entry: %s" (Printexc.to_string e)
  | None -> String.compare mutated whole <> 0
  | Some _ -> String.compare mutated whole = 0

let test_truncation_property =
  QCheck.Test.make ~name:"every truncation is a miss" ~count:200
    QCheck.(float_range 0.0 1.0)
    (fun frac ->
      let _, _, whole = Lazy.force ra_entry in
      let keep = int_of_float (frac *. float_of_int (String.length whole)) in
      let keep = min keep (String.length whole - 1) in
      find_mutated (String.sub whole 0 keep))

let test_byte_flip_property =
  QCheck.Test.make ~name:"every single-byte corruption is a miss" ~count:500
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 255))
    (fun (frac, byte) ->
      let _, _, whole = Lazy.force ra_entry in
      let pos =
        min
          (String.length whole - 1)
          (int_of_float (frac *. float_of_int (String.length whole)))
      in
      let mutated = Bytes.of_string whole in
      Bytes.set mutated pos (Char.chr byte);
      find_mutated (Bytes.to_string mutated))

(* ---- golden bytes ----

   One entry per stage for fixed inputs.  The keys are pinned above;
   this pins the bytes: the MD5 of each file as written, and a copy of
   each file as first written ([fixtures/entries/]) must still read
   back as a hit.  A codec or envelope change that moved one byte
   would orphan every entry in every user's cache. *)

let coal_access ~pattern ~kind ~op ~segments ~transactions =
  {
    Gat_analysis.Coalescing.block_index = 3;
    block_label = "BB3";
    instr_index = 7;
    op;
    kind;
    pattern;
    tid_stride = Gat_analysis.Affine.Known { k = 4; e = 0 };
    iter_stride = Gat_analysis.Affine.Unknown;
    segments;
    transactions;
  }

(* The atax summary plus one group exercising every pattern. *)
let golden_coal () =
  let open Gat_analysis in
  (Lazy.force compiled).Gat_compiler.Driver.mem_summary
  @ [
      ( "BB3",
        [
          coal_access ~pattern:Coalescing.Broadcast ~kind:`Load
            ~op:Gat_isa.Opcode.LDG ~segments:1 ~transactions:0.25;
          coal_access
            ~pattern:(Coalescing.Large (Affine.Known { k = -8; e = 2 }))
            ~kind:`Store ~op:Gat_isa.Opcode.STG ~segments:32
            ~transactions:(1.0 /. 3.0);
          coal_access ~pattern:Coalescing.Unknown ~kind:`Load
            ~op:Gat_isa.Opcode.LDG ~segments:32 ~transactions:32.0;
          coal_access ~pattern:(Coalescing.Stride 12) ~kind:`Load
            ~op:Gat_isa.Opcode.LDG ~segments:3 ~transactions:Float.min_float;
        ] );
    ]

(* A report exercising every finding shape the verdict codec knows. *)
let golden_verdict =
  let open Gat_analysis in
  let value base tid =
    { Affine.base; mag = 1; tid; iter = Affine.Known { k = 0; e = 0 } }
  in
  let access ~op ~stored ~predicated i =
    {
      Races.block_index = i;
      block_label = Printf.sprintf "BB%d" i;
      instr_index = 2 * i;
      op;
      address = value (Some 16) (Affine.Known { k = 4; e = 0 });
      stored;
      predicated;
    }
  in
  let sts = access ~op:Gat_isa.Opcode.STS ~stored:(Some (value None Affine.Unknown)) in
  let lds = access ~op:Gat_isa.Opcode.LDS ~stored:None in
  {
    Verify.program_name = "golden kernel";
    threads_per_block = 256;
    barrier_count = 2;
    interval_count = 3;
    shared_accesses = 5;
    divergent_barriers =
      [
        {
          Barrier_safety.block_index = 4;
          block_label = "BB4";
          instr_index = 1;
          branch_indices = [ 1; 2 ];
          branch_labels = [ "BB1"; "BB2" ];
        };
      ];
    races =
      [
        {
          Races.first = sts ~predicated:false 1;
          second = sts ~predicated:true 2;
          kind = Races.Write_write;
          witness = Races.Exact (0, 32);
        };
        {
          Races.first = sts ~predicated:false 1;
          second = lds ~predicated:false 3;
          kind = Races.Read_write;
          witness = Races.May "address depends on a uniform unknown";
        };
      ];
  }

let block_text (b : Gat_isa.Basic_block.t) =
  ( b.Gat_isa.Basic_block.label,
    List.map Gat_isa.Instruction.to_string b.Gat_isa.Basic_block.body,
    b.Gat_isa.Basic_block.term )

(* (stage, key, store, "find hits with the stored value") *)
let golden_entries () =
  let c = Lazy.force compiled in
  let body = (List.hd (vp ()).Gat_isa.Program.blocks).Gat_isa.Basic_block.body in
  let program = c.Gat_compiler.Driver.program in
  let st = c.Gat_compiler.Driver.alloc_stats in
  let coal = golden_coal () in
  let ra_key = Artifacts.ra_key ~gpu program in
  let coal_key = Artifacts.coal_key ~gpu c.Gat_compiler.Driver.digest in
  let verdict_key =
    Artifacts.verdict_key ~threads_per_block:256 c.Gat_compiler.Driver.digest
  in
  let sched_key = Artifacts.sched_key body in
  [
    ( "sched",
      sched_key,
      (fun () -> Artifacts.store_sched ~key:sched_key body),
      fun () ->
        Option.map (List.map Gat_isa.Instruction.to_string)
          (Artifacts.find_sched ~key:sched_key)
        = Some (List.map Gat_isa.Instruction.to_string body) );
    ( "ra",
      ra_key,
      (fun () -> Artifacts.store_ra ~key:ra_key program st),
      fun () ->
        match Artifacts.find_ra ~key:ra_key with
        | Some (blocks, st') ->
            st' = st
            && List.map block_text blocks
               = List.map block_text program.Gat_isa.Program.blocks
        | None -> false );
    ( "coal",
      coal_key,
      (fun () -> Artifacts.store_coal ~key:coal_key coal),
      fun () -> Artifacts.find_coal ~key:coal_key = Some coal );
    ( "verdict",
      verdict_key,
      (fun () -> Artifacts.store_verdict ~key:verdict_key golden_verdict),
      fun () -> Artifacts.find_verdict ~key:verdict_key = Some golden_verdict );
  ]

let golden_md5 =
  [
    ("sched", "9501a06abafd238980c5430402b70603");
    ("ra", "705f55da70cc0243876ec382065f4a2e");
    ("coal", "b8fcdc9963228acf76cb36a2596460af");
    ("verdict", "b7a0517aec79e0bb28975f633c6abea4");
  ]

let test_golden_bytes () =
  reset ();
  let entries = golden_entries () in
  let path stage key = Filename.concat (Store.dir Artifacts.cache) (stage ^ "-" ^ key ^ ".art") in
  let got =
    List.map
      (fun (stage, key, store, _) ->
        store ();
        (stage, Digest.to_hex (Digest.file (path stage key))))
      entries
  in
  Alcotest.(check (list (pair string string))) "file digests" golden_md5 got;
  (* Each file as first written reads back as a hit. *)
  ignore (Store.clear Artifacts.cache);
  List.iter
    (fun (stage, key, _, found) ->
      let fixture =
        In_channel.with_open_bin
          (Filename.concat "fixtures/entries" (stage ^ ".art"))
          In_channel.input_all
      in
      Out_channel.with_open_bin (path stage key) (fun oc ->
          Out_channel.output_string oc fixture);
      Alcotest.(check bool) (stage ^ " fixture is a hit") true (found ()))
    entries

(* ---- gc ---- *)

let test_gc_evicts_lru () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let entries = Store.files Artifacts.cache in
  Alcotest.(check bool) "sweep left artifacts" true (List.length entries > 1);
  let _, bytes = Store.disk_usage Artifacts.cache in
  (* Age the first half far into the past; gc under a tight budget must
     take the cold half first. *)
  let n = List.length entries in
  let old_half = List.filteri (fun i _ -> i < n / 2) entries in
  let past = Unix.time () -. 864000.0 in
  List.iter (fun p -> Unix.utimes p past past) old_half;
  let r = Artifact_store.gc ~max_bytes:(bytes / 2) in
  Alcotest.(check int) "every candidate examined" n r.Artifact_store.files;
  Alcotest.(check bool) "something evicted" true (r.Artifact_store.removed_files > 0);
  Alcotest.(check bool) "budget honoured" true
    (r.Artifact_store.bytes - r.Artifact_store.removed_bytes <= bytes / 2);
  let survivors = Store.files Artifacts.cache in
  (* LRU order: eviction stops at the budget, so the evicted set must
     be drawn from the aged half alone unless the whole aged half is
     gone. *)
  let evicted = List.filter (fun p -> not (List.mem p survivors)) entries in
  let recent_evicted = List.filter (fun p -> not (List.mem p old_half)) evicted in
  let aged_survived = List.filter (fun p -> List.mem p survivors) old_half in
  Alcotest.(check bool) "no recent entry evicted before the aged ones" true
    (recent_evicted = [] || aged_survived = []);
  Alcotest.(check bool) "some recent entry survived" true
    (List.exists (fun p -> not (List.mem p old_half)) survivors);
  (* A second gc under the same budget is a no-op. *)
  let r2 = Artifact_store.gc ~max_bytes:(bytes / 2) in
  Alcotest.(check int) "idempotent" 0 r2.Artifact_store.removed_files

let test_gc_unbounded_keeps_everything () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let files, bytes = Store.disk_usage Artifacts.cache in
  let r = Artifact_store.gc ~max_bytes:(bytes * 2) in
  Alcotest.(check int) "nothing evicted" 0 r.Artifact_store.removed_files;
  let files', bytes' = Store.disk_usage Artifacts.cache in
  Alcotest.(check int) "files intact" files files';
  Alcotest.(check int) "bytes intact" bytes bytes'

(* Caches written before the block table stopped being stored hold
   [bt-*.art] files.  They are still [.art] entries, so stats count
   them and clear and gc reclaim them. *)
let plant_stale_bt () =
  let path =
    Filename.concat (Store.dir Artifacts.cache)
      ("bt-" ^ Digest.to_hex (Digest.string "stale") ^ ".art")
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "gat-artifact 1\nstage bt/1\n");
  path

let test_stale_bt_reclaimable () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let files, bytes = Store.disk_usage Artifacts.cache in
  let path = plant_stale_bt () in
  let size = (Unix.stat path).Unix.st_size in
  let files', bytes' = Store.disk_usage Artifacts.cache in
  Alcotest.(check (pair int int)) "cache stats count it" (files + 1, bytes + size)
    (files', bytes');
  Alcotest.(check int) "cache clear removes it" files' (Store.clear Artifacts.cache);
  Alcotest.(check bool) "gone after clear" false (Sys.file_exists path);
  let path = plant_stale_bt () in
  let past = Unix.time () -. 864000.0 in
  Unix.utimes path past past;
  let r = Artifact_store.gc ~max_bytes:0 in
  Alcotest.(check bool) "cache gc evicts it" true (r.Artifact_store.removed_files >= 1);
  Alcotest.(check bool) "gone after gc" false (Sys.file_exists path)

let cleanup () =
  Store.set_enabled Artifacts.cache true;
  ignore (Store.clear Artifacts.cache);
  (try Sys.rmdir (Store.dir Artifacts.cache) with Sys_error _ -> ());
  try if Sys.file_exists scratch then Sys.rmdir scratch
  with Sys_error _ -> ()

let () =
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "gat_artifact_store"
        [
          ( "keys",
            [
              Alcotest.test_case "golden digests" `Quick test_golden_keys;
              Alcotest.test_case "weight-free" `Quick test_keys_weight_free;
              Alcotest.test_case "fingerprint = reference printer" `Quick
                test_fingerprint_matches_reference;
              Alcotest.test_case "compiled digest = fingerprint" `Quick
                test_compiled_digest;
            ] );
          ( "entries",
            [
              Alcotest.test_case "sched roundtrip" `Quick test_sched_roundtrip;
              Alcotest.test_case "disabled inert" `Quick test_disabled_is_inert;
              Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
            ] );
          ( "sweeps",
            [
              Alcotest.test_case "store-served sweep bit-identical" `Quick
                test_store_served_sweep_identical;
              Alcotest.test_case "bit-identical across kernels x GPUs" `Quick
                test_identical_across_kernels_and_gpus;
              Alcotest.test_case "BC plane shared across processes" `Quick
                test_bc_plane_shared_across_processes;
              Alcotest.test_case "one-statement edit re-sweeps O(delta)" `Quick
                test_edit_resweeps_delta;
            ] );
          ( "integrity",
            [
              QCheck_alcotest.to_alcotest test_truncation_property;
              QCheck_alcotest.to_alcotest test_byte_flip_property;
            ] );
          ( "gc",
            [
              Alcotest.test_case "evicts LRU first" `Quick test_gc_evicts_lru;
              Alcotest.test_case "no-op within budget" `Quick
                test_gc_unbounded_keeps_everything;
              Alcotest.test_case "stale bt entries reclaimable" `Quick
                test_stale_bt_reclaimable;
            ] );
        ])
