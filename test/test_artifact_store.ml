(* Tests for the content-addressed artifact store: golden key and byte
   stability, BC-plane sharing across simulated processes, bit-identity
   of store-served sweeps, corruption tolerance, and the LRU gc. *)

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

(* ---- golden keys ----

   Pinned digests for a fixed kernel, device and parameter set.  These
   move only when the fingerprint definition, the verdict key's inputs,
   or the verdict format version changes — all deliberate, documented events
   (DESIGN.md section 5.8).  Anything else moving them is an
   accidental cache-invalidation bug: every store entry in every
   user's cache would silently orphan. *)

let test_golden_keys () =
  let p = vp () in
  let got =
    [
      ("program fingerprint", Fingerprint.program p);
      ("verdict key", Artifacts.verdict_key (Fingerprint.program p));
    ]
  in
  let want =
    [
      ("program fingerprint", "133774d54218b7a5eb6218242fd5a562");
      ("verdict key", "a87517ce07736bfb743a4c3b0d9852d0");
    ]
  in
  Alcotest.(check (list (pair string string))) "pinned digests" want got

let test_keys_weight_free () =
  (* Same code at a different launch geometry: the fingerprint, and so
     the class's verdict key, must be unchanged. *)
  let c1 = Lazy.force compiled in
  let params2 = Params.make ~threads_per_block:512 ~block_count:24 () in
  let c2 = Gat_compiler.Driver.compile_exn kernel gpu params2 in
  let p1 = c1.Gat_compiler.Driver.ptx and p2 = c2.Gat_compiler.Driver.ptx in
  let d1 = Fingerprint.program p1 and d2 = Fingerprint.program p2 in
  Alcotest.(check string) "fingerprint ignores TC/BC" d1 d2;
  Alcotest.(check string) "verdict key ignores TC/BC" (Artifacts.verdict_key d1)
    (Artifacts.verdict_key d2)

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
  (* "Process one": cold — every verdict computed and persisted. *)
  let first =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3
  in
  (* "Process two": in-memory caches empty, artifact tree intact.  The
     hard invariant: the store-served sweep is bit-identical, and no
     verdict is recomputed. *)
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
     (and a new problem size): the verdict key reads neither BC nor N,
     so the second sweep must be all hits. *)
  let bc32 = { small_space with Space.bc = [ 32 ] } in
  let bc64 = { small_space with Space.bc = [ 64 ] } in
  ignore (Gat_tuner.Tuner.sweep ~space:bc32 ~jobs:1 kernel gpu ~n:64 ~seed:3);
  Gat_tuner.Tuner.clear_cache ();
  let before = Store.stats Artifacts.cache in
  ignore (Gat_tuner.Tuner.sweep ~space:bc64 ~jobs:1 kernel gpu ~n:128 ~seed:3);
  let after = Store.stats Artifacts.cache in
  Alcotest.(check int) "BC-only variants verify nothing" 0
    (after.Store.misses - before.Store.misses);
  Alcotest.(check bool) "served from the BC=32 plane's artifacts" true
    (after.Store.hits - before.Store.hits > 0)

(* Workloads.atax with one edit: tmp starts at 1e-9 instead of 0.0. *)
let atax_edited =
  let edit = function Gat_ir.Expr.Float 0.0 -> Gat_ir.Expr.Float 1e-9 | e -> e in
  let body = List.map (Gat_ir.Stmt.map_exprs edit) kernel.Gat_ir.Kernel.body in
  { kernel with Gat_ir.Kernel.body }

let test_edit_serves_no_stale_verdict () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  (* A "new process" sweeping the edited kernel: every program digest
     moved, so no verdict of the original kernel may be served. *)
  Gat_tuner.Tuner.clear_cache ();
  let before = Store.stats Artifacts.cache in
  let edited =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 atax_edited gpu ~n:64 ~seed:3
  in
  let after = Store.stats Artifacts.cache in
  Alcotest.(check int) "no verdict hit after the edit" 0
    (after.Store.hits - before.Store.hits);
  Alcotest.(check bool) "the edited kernel's verdicts looked up" true
    (after.Store.misses - before.Store.misses > 0);
  Gat_tuner.Tuner.clear_cache ();
  Store.set_enabled Artifacts.cache false;
  let uncached =
    Fun.protect
      ~finally:(fun () -> Store.set_enabled Artifacts.cache true)
      (fun () ->
        Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 atax_edited gpu ~n:64 ~seed:3)
  in
  check_variants_identical uncached edited

(* ---- golden bytes ----

   One class entry for fixed inputs.  The key is pinned above; this
   pins the bytes: the MD5 of the file as written, and a copy of the
   file as first written ([fixtures/entries/verdict.art]) must still
   read back as a hit.  A codec or envelope change that moved one byte
   would orphan every entry in every user's cache. *)

(* Facts exercising every shape the codec knows: a divergent barrier,
   write-write and read-write candidates, stored values known and
   unknown, guarded and unguarded accesses. *)
let golden_facts =
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
    Verify.name = "golden kernel";
    barriers = 2;
    accesses = 5;
    divergent =
      [
        {
          Barrier_safety.block_index = 4;
          block_label = "BB4";
          instr_index = 1;
          branch_indices = [ 1; 2 ];
          branch_labels = [ "BB1"; "BB2" ];
        };
      ];
    candidates =
      [
        {
          Races.pair_first = sts ~predicated:false 1;
          pair_second = sts ~predicated:true 2;
          pair_kind = Races.Write_write;
        };
        {
          Races.pair_first = sts ~predicated:false 1;
          pair_second = lds ~predicated:false 3;
          pair_kind = Races.Read_write;
        };
      ];
  }

let verdict_key () = Artifacts.verdict_key (Lazy.force compiled).Gat_compiler.Driver.digest

let verdict_path key =
  Filename.concat (Store.dir Artifacts.cache) ("verdict-" ^ key ^ ".art")

let read_fixture name =
  In_channel.with_open_bin (Filename.concat "fixtures/entries" name) In_channel.input_all

let plant path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let test_golden_bytes () =
  reset ();
  let key = verdict_key () in
  Artifacts.store_verdict ~key golden_facts;
  Alcotest.(check string) "file digest" "abc8b9605ad2f87361b864967558529e"
    (Digest.to_hex (Digest.file (verdict_path key)));
  (* The file as first written reads back as a hit. *)
  ignore (Store.clear Artifacts.cache);
  plant (verdict_path key) (read_fixture "verdict.art");
  Alcotest.(check bool) "verdict fixture is a hit" true
    (Artifacts.find_verdict ~key = Some golden_facts)

(* A [verdict/1] entry held one report per (class, TC), under a key
   that read TC.  Its key never comes up again; and even planted under
   a current key, its header reads as a miss. *)
let test_old_format_never_served () =
  reset ();
  let key = verdict_key () in
  plant (verdict_path key) (read_fixture "verdict1.art");
  Alcotest.(check bool) "verdict/1 entry is a miss" true
    (Artifacts.find_verdict ~key = None);
  let s = stats () in
  Alcotest.(check (pair int int)) "counted as one miss" (0, 1) (s.Store.hits, s.Store.misses);
  (* The next analysis of the class overwrites it. *)
  ignore (Gat_tuner.Tuner.verdict (Lazy.force compiled));
  Alcotest.(check bool) "rewritten as a class entry" true
    (Artifacts.find_verdict ~key <> None)

let test_disabled_is_inert () =
  reset ();
  Store.set_enabled Artifacts.cache false;
  let key = verdict_key () in
  Artifacts.store_verdict ~key golden_facts;
  Alcotest.(check bool) "no find when disabled" true
    (Artifacts.find_verdict ~key = None);
  let files, _ = Store.disk_usage Artifacts.cache in
  Alcotest.(check int) "no file written" 0 files;
  let s = stats () in
  Alcotest.(check int) "no counters touched" 0
    (s.Store.hits + s.Store.misses + s.Store.stores);
  Store.set_enabled Artifacts.cache true

(* ---- corruption (QCheck) ----

   Every truncation and single-byte corruption of a stored entry must
   read as a miss (or, when the mutation writes back the original
   byte, an unchanged hit) — never a wrong hit, never an exception. *)

let verdict_entry =
  lazy
    (reset ();
     let key = verdict_key () in
     Artifacts.store_verdict ~key golden_facts;
     let path = verdict_path key in
     Alcotest.(check bool) "verdict entry on disk" true (Sys.file_exists path);
     (key, path, In_channel.with_open_bin path In_channel.input_all))

let find_mutated mutated =
  let key, path, whole = Lazy.force verdict_entry in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mutated);
  match Artifacts.find_verdict ~key with
  | exception e ->
      Alcotest.failf "find_verdict raised on corrupted entry: %s"
        (Printexc.to_string e)
  | None -> String.compare mutated whole <> 0
  | Some f -> String.compare mutated whole = 0 && f = golden_facts

let test_truncation_property =
  QCheck.Test.make ~name:"every truncation is a miss" ~count:200
    QCheck.(float_range 0.0 1.0)
    (fun frac ->
      let _, _, whole = Lazy.force verdict_entry in
      let keep = int_of_float (frac *. float_of_int (String.length whole)) in
      let keep = min keep (String.length whole - 1) in
      find_mutated (String.sub whole 0 keep))

let test_byte_flip_property =
  QCheck.Test.make ~name:"every single-byte corruption is a miss" ~count:500
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 255))
    (fun (frac, byte) ->
      let _, _, whole = Lazy.force verdict_entry in
      let pos =
        min
          (String.length whole - 1)
          (int_of_float (frac *. float_of_int (String.length whole)))
      in
      let mutated = Bytes.of_string whole in
      Bytes.set mutated pos (Char.chr byte);
      find_mutated (Bytes.to_string mutated))

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

(* Caches written before the block table, schedule, register
   allocation and coalescing summary stopped being stored hold
   [bt-*.art], [sched-*.art], [ra-*.art] and [coal-*.art] files, and
   caches written before verdicts were stored per class hold
   [verdict/1] entries under keys that read TC.  They are still [.art]
   entries, so stats count them and clear and gc reclaim them. *)
let plant_stale () =
  let stale = Digest.to_hex (Digest.string "stale") in
  let path stage = Filename.concat (Store.dir Artifacts.cache) (stage ^ "-" ^ stale ^ ".art") in
  plant (path "verdict") (read_fixture "verdict1.art");
  path "verdict"
  :: List.map
       (fun stage ->
         plant (path stage) (Printf.sprintf "gat-artifact 1\nstage %s/1\n" stage);
         path stage)
       [ "bt"; "sched"; "ra"; "coal" ]

let test_stale_reclaimable () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let files, bytes = Store.disk_usage Artifacts.cache in
  let paths = plant_stale () in
  let size = List.fold_left (fun n p -> n + (Unix.stat p).Unix.st_size) 0 paths in
  let files', bytes' = Store.disk_usage Artifacts.cache in
  Alcotest.(check (pair int int)) "cache stats count them"
    (files + List.length paths, bytes + size)
    (files', bytes');
  Alcotest.(check int) "cache clear removes them" files' (Store.clear Artifacts.cache);
  Alcotest.(check bool) "gone after clear" false (List.exists Sys.file_exists paths);
  let paths = plant_stale () in
  let past = Unix.time () -. 864000.0 in
  List.iter (fun p -> Unix.utimes p past past) paths;
  let r = Artifact_store.gc ~max_bytes:0 in
  Alcotest.(check bool) "cache gc evicts them" true
    (r.Artifact_store.removed_files >= List.length paths);
  Alcotest.(check bool) "gone after gc" false (List.exists Sys.file_exists paths)

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
              Alcotest.test_case "disabled inert" `Quick test_disabled_is_inert;
              Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
              Alcotest.test_case "verdict/1 never served" `Quick
                test_old_format_never_served;
            ] );
          ( "sweeps",
            [
              Alcotest.test_case "store-served sweep bit-identical" `Quick
                test_store_served_sweep_identical;
              Alcotest.test_case "bit-identical across kernels x GPUs" `Quick
                test_identical_across_kernels_and_gpus;
              Alcotest.test_case "BC plane shared across processes" `Quick
                test_bc_plane_shared_across_processes;
              Alcotest.test_case "edit serves no stale verdict" `Quick
                test_edit_serves_no_stale_verdict;
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
                test_stale_reclaimable;
            ] );
        ])
