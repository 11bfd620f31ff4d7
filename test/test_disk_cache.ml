(* Tests for the persistent sweep cache: exact round-trips, key
   sensitivity, version invalidation, corruption tolerance, and the
   Tuner integration (a fresh in-memory state restored from disk gives
   bit-identical sweeps). *)

module Disk_cache = Gat_tuner.Disk_cache
module Store = Gat_util.Store
module Variant = Gat_tuner.Variant
module Space = Gat_tuner.Space
module Params = Gat_compiler.Params

(* Everything below must run against a private scratch directory, never
   the user's real cache. *)
let scratch =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-test-cache-%d" (Unix.getpid ()))
  in
  Unix.putenv "GAT_CACHE_DIR" d;
  d

let baseline = ref (Store.stats Disk_cache.cache)

let reset () =
  Store.set_enabled Disk_cache.cache true;
  ignore (Store.clear Disk_cache.cache);
  baseline := Store.stats Disk_cache.cache

(* The store's counters since the last [reset]. *)
let stats () =
  let s = Store.stats Disk_cache.cache and b = !baseline in
  {
    Store.hits = s.Store.hits - b.Store.hits;
    misses = s.Store.misses - b.Store.misses;
    stores = s.Store.stores - b.Store.stores;
  }

let kernel = Gat_workloads.Workloads.atax
let kernel2 = Gat_workloads.Workloads.bicg
let gpu = Gat_arch.Gpu.k20

let small_space =
  {
    Space.tc = [ 64; 128 ];
    bc = [ 32 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

(* Variants with awkward values: subnormals, many-significant-bit
   floats, negatives — the text format must round-trip each bitwise. *)
let mix a b =
  {
    Gat_core.Imix.per_category = Array.init 12 (fun i -> a +. (b *. float_of_int i));
    reg_operands = a *. b;
  }

let sample_variants =
  [
    {
      Variant.params = Params.default;
      time_ms = 0.1 +. (1.0 /. 3.0);
      occupancy = 0.75;
      registers = 24;
      dynamic_mix = mix Float.pi 1e-300;
      est_mix = mix (-2.5e-7) (Float.of_string "0x1.fffffffffffffp+1");
    };
    {
      Variant.params =
        Params.make ~threads_per_block:512 ~block_count:24 ~unroll:7
          ~l1_pref_kb:48 ~staging:8 ~fast_math:true ();
      time_ms = Float.min_float;
      occupancy = 1.0;
      registers = 255;
      dynamic_mix = mix 0.0 0.0;
      est_mix = mix 1e22 (-0.0);
    };
  ]

let sample_unsafe =
  [
    {
      Variant.unsafe_params =
        Params.make ~threads_per_block:256 ~block_count:64 ~unroll:4
          ~l1_pref_kb:16 ~staging:4 ~fast_math:false ();
      reason = "UNSAFE: 1 divergent barrier, 2 shared-memory races";
    };
  ]

let check_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_variants_identical stored loaded =
  Alcotest.(check int) "variant count" (List.length stored) (List.length loaded);
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
    stored loaded

let check_unsafe_identical stored loaded =
  Alcotest.(check int) "unsafe count" (List.length stored) (List.length loaded);
  List.iter2
    (fun (a : Variant.unsafe) (b : Variant.unsafe) ->
      Alcotest.(check int) "unsafe params" 0
        (Params.compare a.Variant.unsafe_params b.Variant.unsafe_params);
      Alcotest.(check string) "reason" a.Variant.reason b.Variant.reason)
    stored loaded

(* ---- basics ---- *)

let test_scratch_dir () =
  Alcotest.(check string) "GAT_CACHE_DIR honoured" scratch (Store.dir Disk_cache.cache)

let test_miss_on_empty () =
  reset ();
  Alcotest.(check bool) "empty cache misses" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 = None);
  let s = stats () in
  Alcotest.(check int) "one miss" 1 s.Store.misses;
  Alcotest.(check int) "no hit" 0 s.Store.hits

let test_store_find_roundtrip () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  match Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 with
  | None -> Alcotest.fail "stored entry not found"
  | Some (loaded, unsafe_loaded) ->
      check_variants_identical sample_variants loaded;
      check_unsafe_identical sample_unsafe unsafe_loaded;
      let s = stats () in
      Alcotest.(check int) "one store" 1 s.Store.stores;
      Alcotest.(check int) "one hit" 1 s.Store.hits

let test_key_sensitivity () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  Alcotest.(check bool) "different size misses" true
    (Disk_cache.find small_space kernel gpu ~n:128 ~seed:42 = None);
  Alcotest.(check bool) "different seed misses" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:43 = None);
  Alcotest.(check bool) "different kernel misses" true
    (Disk_cache.find small_space kernel2 gpu ~n:64 ~seed:42 = None);
  Alcotest.(check bool) "different gpu misses" true
    (Disk_cache.find small_space kernel Gat_arch.Gpu.p100 ~n:64 ~seed:42 = None);
  Alcotest.(check bool) "different space misses" true
    (Disk_cache.find Space.paper kernel gpu ~n:64 ~seed:42 = None);
  Alcotest.(check bool) "original still hits" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 <> None)

(* Two kernels that differ only beyond %g's six significant digits
   must not share a key, or a fresh process sweeping the second would
   be served the first one's results. *)
let test_float_constants_keyed_exactly () =
  let with_init c =
    let init = function
      | Gat_ir.Expr.Float 0.0 -> Gat_ir.Expr.Float c
      | e -> e
    in
    let body = List.map (Gat_ir.Stmt.map_exprs init) kernel.Gat_ir.Kernel.body in
    { kernel with Gat_ir.Kernel.body }
  in
  let key k = Disk_cache.key small_space k gpu ~n:64 ~seed:42 in
  Alcotest.(check bool) "1e-9 and 1.0000001e-9 key apart" true
    (key (with_init 1e-9) <> key (with_init 1.0000001e-9))

let entry_path () =
  Filename.concat scratch
    (Disk_cache.key small_space kernel gpu ~n:64 ~seed:42 ^ ".sweep")

let test_version_invalidation () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  (* Pretend the entry was written by an older simulator: rewrite its
     model stamp.  The payload check must reject it. *)
  let path = entry_path () in
  let lines =
    In_channel.with_open_text path In_channel.input_lines
    |> List.map (fun l ->
           if String.length l >= 5 && String.sub l 0 5 = "model" then
             "model gat-sim/0-ancient"
           else l)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  Alcotest.(check bool) "stale model version is a miss" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 = None)

let corrupt content =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  Out_channel.with_open_text (entry_path ()) (fun oc ->
      Out_channel.output_string oc content);
  Disk_cache.find small_space kernel gpu ~n:64 ~seed:42

let test_corruption_tolerated () =
  Alcotest.(check bool) "empty file" true (corrupt "" = None);
  Alcotest.(check bool) "garbage" true (corrupt "\x00\xffnot a cache file\n" = None);
  Alcotest.(check bool) "bad counts" true
    (corrupt "gat-sweep-cache 1\nmodel gat-sim/3\nvariants 999\nend\n" = None);
  (* Truncation: drop the trailing "end" marker and half a line. *)
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  let whole = In_channel.with_open_text (entry_path ()) In_channel.input_all in
  Out_channel.with_open_text (entry_path ()) (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole * 2 / 3)));
  Alcotest.(check bool) "truncated file is a miss, not a crash" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 = None)

let test_disabled_is_inert () =
  reset ();
  Store.set_enabled Disk_cache.cache false;
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  Alcotest.(check bool) "no find when disabled" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 = None);
  let entries, _ = Store.disk_usage Disk_cache.cache in
  Alcotest.(check int) "no file written" 0 entries;
  let s = stats () in
  Alcotest.(check int) "no counters touched" 0
    (s.Store.hits + s.Store.misses + s.Store.stores);
  Store.set_enabled Disk_cache.cache true

let test_usage_and_clear () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  Disk_cache.store small_space kernel gpu ~n:128 ~seed:42 sample_variants
    sample_unsafe;
  (* A foreign file in the cache directory must survive [clear]. *)
  let foreign = Filename.concat scratch "keep.txt" in
  Out_channel.with_open_text foreign (fun oc ->
      Out_channel.output_string oc "not a cache entry\n");
  let entries, bytes = Store.disk_usage Disk_cache.cache in
  Alcotest.(check int) "two entries" 2 entries;
  Alcotest.(check bool) "nonzero size" true (bytes > 0);
  Alcotest.(check int) "clear removes both" 2 (Store.clear Disk_cache.cache);
  let entries, bytes = Store.disk_usage Disk_cache.cache in
  Alcotest.(check int) "empty after clear" 0 entries;
  Alcotest.(check int) "no bytes" 0 bytes;
  Alcotest.(check bool) "foreign file kept" true (Sys.file_exists foreign);
  Sys.remove foreign

(* ---- systematic corruption (QCheck) ----

   The integrity trailer must turn EVERY truncation and single-byte
   corruption into a miss (or, when the "corruption" writes back the
   original byte, an unchanged hit) — never a wrong hit, never an
   exception.  Without the md5 line this property is false: a flipped
   digit inside a hex-float literal parses fine and yields a silently
   wrong variant. *)

let written_entry () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  In_channel.with_open_bin (entry_path ()) In_channel.input_all

let find_mutated whole mutated =
  Out_channel.with_open_bin (entry_path ()) (fun oc ->
      Out_channel.output_string oc mutated);
  match Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 with
  | exception e ->
      Alcotest.failf "find raised on corrupted entry: %s" (Printexc.to_string e)
  | None -> String.compare mutated whole <> 0
  | Some (loaded, unsafe_loaded) ->
      check_variants_identical sample_variants loaded;
      check_unsafe_identical sample_unsafe unsafe_loaded;
      String.compare mutated whole = 0

let test_truncation_property =
  let whole = lazy (written_entry ()) in
  QCheck.Test.make ~name:"every truncation is a miss" ~count:200
    QCheck.(float_range 0.0 1.0)
    (fun frac ->
      let whole = Lazy.force whole in
      let keep = int_of_float (frac *. float_of_int (String.length whole)) in
      let keep = min keep (String.length whole - 1) in
      find_mutated whole (String.sub whole 0 keep))

let test_byte_flip_property =
  let whole = lazy (written_entry ()) in
  QCheck.Test.make ~name:"every single-byte corruption is a miss" ~count:500
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 255))
    (fun (frac, byte) ->
      let whole = Lazy.force whole in
      let pos =
        min
          (String.length whole - 1)
          (int_of_float (frac *. float_of_int (String.length whole)))
      in
      let mutated = Bytes.of_string whole in
      Bytes.set mutated pos (Char.chr byte);
      find_mutated whole (Bytes.to_string mutated))

(* ---- graceful degradation ---- *)

(* chmod 000 does not stop root (tests often run as root in CI
   containers), so the unwritable directory is simulated with an
   ENOTDIR path: a cache "directory" nested under a regular file. *)
let test_unwritable_dir_degrades () =
  reset ();
  let blocker = Filename.temp_file "gat-test-blocker" ".txt" in
  Unix.putenv "GAT_CACHE_DIR" (Filename.concat blocker "cache");
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GAT_CACHE_DIR" scratch;
      Store.reset_degraded Disk_cache.cache;
      Sys.remove blocker)
    (fun () ->
      Store.reset_degraded Disk_cache.cache;
      Alcotest.(check bool) "healthy before" false (Store.degraded Disk_cache.cache);
      (* Must not raise, must latch, must keep misses working. *)
      Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
      Alcotest.(check bool) "degraded after failed write" true
        (Store.degraded Disk_cache.cache);
      Alcotest.(check bool) "reads behave as misses" true
        (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 = None);
      (* Later stores are skipped silently, still no raise. *)
      Disk_cache.store small_space kernel gpu ~n:128 ~seed:42 sample_variants
    sample_unsafe;
      (* A path-addressed checkpoint is coordination state, not a cache
         optimization: it ignores the latch and raises for its caller's
         retry policy instead. *)
      Alcotest.(check bool) "checkpoint write raises" true
        (match
           Disk_cache.checkpoint_write
             ~path:(Filename.concat (Store.dir Disk_cache.cache) "p.ckpt")
             { Disk_cache.done_points = 1; variants = []; failures = []; unsafe = [] }
         with
        | () -> false
        | exception Sys_error _ -> true);
      let s = stats () in
      Alcotest.(check int) "nothing counted as stored" 0 s.Store.stores);
  Alcotest.(check bool) "latch cleared for later tests" false
    (Store.degraded Disk_cache.cache)

(* ---- checkpoints ---- *)

let sample_failures =
  [
    {
      Variant.failed_params = Params.default;
      message = "simulate(n=64): Failure(\"injected\")";
      attempts = 2;
    };
    {
      Variant.failed_params =
        Params.make ~threads_per_block:96 ~block_count:48 ~unroll:2
          ~l1_pref_kb:48 ~staging:2 ~fast_math:true ();
      message = "compile: Stack_overflow";
      attempts = 1;
    };
  ]

let check_failures_identical stored loaded =
  Alcotest.(check int) "failure count" (List.length stored) (List.length loaded);
  List.iter2
    (fun (a : Variant.failure) (b : Variant.failure) ->
      Alcotest.(check int) "failed params" 0
        (Params.compare a.Variant.failed_params b.Variant.failed_params);
      Alcotest.(check string) "message" a.Variant.message b.Variant.message;
      Alcotest.(check int) "attempts" a.Variant.attempts b.Variant.attempts)
    stored loaded

(* Path-addressed checkpoints, written into the cache directory with
   the suffix [clear] reclaims. *)
let ckpt_path () = Filename.concat scratch "prefix.ckpt"

let test_checkpoint_roundtrip () =
  reset ();
  let ckpt =
    {
      Disk_cache.done_points = 3;
      variants = sample_variants;
      failures = sample_failures;
      unsafe = sample_unsafe;
    }
  in
  Alcotest.(check bool) "no checkpoint initially" true
    (Disk_cache.checkpoint_read (ckpt_path ()) = None);
  Disk_cache.checkpoint_write ~path:(ckpt_path ()) ckpt;
  (match Disk_cache.checkpoint_read (ckpt_path ()) with
  | None -> Alcotest.fail "written checkpoint not found"
  | Some c ->
      Alcotest.(check int) "done_points" 3 c.Disk_cache.done_points;
      check_variants_identical sample_variants c.Disk_cache.variants;
      check_failures_identical sample_failures c.Disk_cache.failures;
      check_unsafe_identical sample_unsafe c.Disk_cache.unsafe);
  (* A checkpoint is not a cache entry. *)
  Alcotest.(check bool) "entry lookup unaffected" true
    (Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 = None);
  (* Replacement is atomic-in-effect: the latest write wins. *)
  Disk_cache.checkpoint_write ~path:(ckpt_path ())
    { ckpt with Disk_cache.done_points = 4 };
  (match Disk_cache.checkpoint_read (ckpt_path ()) with
  | Some c -> Alcotest.(check int) "replaced" 4 c.Disk_cache.done_points
  | None -> Alcotest.fail "replacement lost");
  (* The text a holder carries in its record is the file's payload. *)
  match Disk_cache.checkpoint_of_text (Disk_cache.checkpoint_text ckpt) with
  | Some c -> Alcotest.(check int) "text roundtrip" 3 c.Disk_cache.done_points
  | None -> Alcotest.fail "checkpoint text does not parse"

let test_checkpoint_corruption () =
  reset ();
  Disk_cache.checkpoint_write ~path:(ckpt_path ())
    {
      Disk_cache.done_points = 2;
      variants = sample_variants;
      failures = sample_failures;
      unsafe = sample_unsafe;
    };
  let whole = In_channel.with_open_bin (ckpt_path ()) In_channel.input_all in
  Out_channel.with_open_bin (ckpt_path ()) (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole / 2)));
  Alcotest.(check bool) "truncated checkpoint reads as absent" true
    (Disk_cache.checkpoint_read (ckpt_path ()) = None);
  (* clear() sweeps damaged checkpoints too. *)
  Alcotest.(check bool) "clear removes it" true (Store.clear Disk_cache.cache >= 1);
  Alcotest.(check bool) "file gone" false (Sys.file_exists (ckpt_path ()))

(* ---- golden bytes ----

   The keys are content hashes; this pins the bytes behind them.  The
   MD5 of a [.sweep] and a [.ckpt] file written from fixed inputs is
   pinned, and a copy of each file as first written
   ([fixtures/entries/]) must still read back as a hit: a codec or
   envelope change that moved one byte would orphan every user's
   cache. *)

let golden_ckpt =
  {
    Disk_cache.done_points = 3;
    variants = sample_variants;
    failures = sample_failures;
    unsafe = sample_unsafe;
  }

let golden_md5 =
  [
    ("sweep", "df345ac915ecd2d5b0f79e04e60870c6");
    ("ckpt", "c0cb701ab21f221ef6726d36fd3f9a00");
  ]

let test_golden_bytes () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  Disk_cache.checkpoint_write ~path:(ckpt_path ()) golden_ckpt;
  let files = [ ("sweep", entry_path ()); ("ckpt", ckpt_path ()) ] in
  let got =
    List.map (fun (kind, path) -> (kind, Digest.to_hex (Digest.file path))) files
  in
  Alcotest.(check (list (pair string string))) "file digests" golden_md5 got;
  (* Each file as first written reads back as a hit. *)
  ignore (Store.clear Disk_cache.cache);
  List.iter
    (fun (kind, path) ->
      let fixture =
        In_channel.with_open_bin
          (Filename.concat "fixtures/entries" ("golden." ^ kind))
          In_channel.input_all
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc fixture))
    files;
  (match Disk_cache.find small_space kernel gpu ~n:64 ~seed:42 with
  | None -> Alcotest.fail "sweep fixture is not a hit"
  | Some (loaded, unsafe_loaded) ->
      check_variants_identical sample_variants loaded;
      check_unsafe_identical sample_unsafe unsafe_loaded);
  match Disk_cache.checkpoint_read (ckpt_path ()) with
  | None -> Alcotest.fail "checkpoint fixture is not a hit"
  | Some c ->
      Alcotest.(check int) "done_points" 3 c.Disk_cache.done_points;
      check_variants_identical sample_variants c.Disk_cache.variants;
      check_failures_identical sample_failures c.Disk_cache.failures;
      check_unsafe_identical sample_unsafe c.Disk_cache.unsafe

(* Older versions checkpointed plain sweeps to [<key>.ckpt] next to
   the entries.  Nothing writes one now, but a user's cache may still
   hold them: [gat cache clear] and [gc] must reclaim them. *)
let test_orphaned_ckpt_reclaimed () =
  reset ();
  let orphan =
    Filename.concat scratch
      (Disk_cache.key small_space kernel gpu ~n:64 ~seed:42 ^ ".ckpt")
  in
  let plant () =
    let fixture =
      In_channel.with_open_bin "fixtures/entries/golden.ckpt"
        In_channel.input_all
    in
    Out_channel.with_open_bin orphan (fun oc ->
        Out_channel.output_string oc fixture)
  in
  plant ();
  Alcotest.(check bool) "listed among the cache's files" true
    (List.mem orphan (Store.files Disk_cache.cache));
  Alcotest.(check int) "clear removes it" 1 (Store.clear Disk_cache.cache);
  Alcotest.(check bool) "gone after clear" false (Sys.file_exists orphan);
  plant ();
  let r = Gat_tuner.Artifact_store.gc ~max_bytes:0 in
  Alcotest.(check bool) "gc evicts it" true
    (r.Gat_tuner.Artifact_store.removed_files >= 1);
  Alcotest.(check bool) "gone after gc" false (Sys.file_exists orphan)

(* [gat cache stats] counts what [clear] removes: an orphaned [.ckpt]
   beside an entry is two files, not one. *)
let test_usage_counts_orphaned_ckpt () =
  reset ();
  Disk_cache.store small_space kernel gpu ~n:64 ~seed:42 sample_variants
    sample_unsafe;
  let fixture =
    In_channel.with_open_bin "fixtures/entries/golden.ckpt" In_channel.input_all
  in
  Out_channel.with_open_bin (Filename.concat scratch "abc.ckpt") (fun oc ->
      Out_channel.output_string oc fixture);
  let files, bytes = Store.disk_usage Disk_cache.cache in
  Alcotest.(check int) "the entry and the checkpoint" 2 files;
  Alcotest.(check int) "their bytes"
    ((Unix.stat (entry_path ())).Unix.st_size + String.length fixture)
    bytes;
  Alcotest.(check int) "clear removes as many" files (Store.clear Disk_cache.cache)

(* ---- Tuner integration ---- *)

let test_sweep_restored_across_processes () =
  reset ();
  (* "Process one": compute and persist. *)
  Gat_tuner.Tuner.clear_cache ();
  let first =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:42
  in
  (* "Process two": in-memory caches empty, disk intact.  The sweep
     must come back from disk (no compile) and be bit-identical. *)
  Gat_tuner.Tuner.clear_cache ();
  let compiles () = Gat_util.Metrics.(value (counter "compile.count")) in
  let compiles0 = compiles () in
  let before = Store.stats Disk_cache.cache in
  let second =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:42
  in
  let after = Store.stats Disk_cache.cache in
  check_variants_identical first second;
  Alcotest.(check int) "exactly one disk hit" 1
    (after.Store.hits - before.Store.hits);
  Alcotest.(check int) "no compiles on the warm path" 0
    (compiles () - compiles0)

let test_sweep_multi_restored () =
  reset ();
  Gat_tuner.Tuner.clear_cache ();
  let first =
    Gat_tuner.Tuner.sweep_multi ~space:small_space ~jobs:1 kernel gpu
      ~ns:[ 64; 128; 256 ] ~seed:7
  in
  Gat_tuner.Tuner.clear_cache ();
  let before = Store.stats Disk_cache.cache in
  let second =
    Gat_tuner.Tuner.sweep_multi ~space:small_space ~jobs:1 kernel gpu
      ~ns:[ 64; 128; 256 ] ~seed:7
  in
  let after = Store.stats Disk_cache.cache in
  Alcotest.(check int) "three disk hits" 3
    (after.Store.hits - before.Store.hits);
  Alcotest.(check int) "no disk misses" 0
    (after.Store.misses - before.Store.misses);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check int) "size order" n1 n2;
      check_variants_identical v1 v2)
    first second

(* ---- field printing ----

   The emitter writes integers and floats without [Printf]; every value,
   extremes and special floats included, must come out as [%d] and
   [%h] print it, or entries would move bytes. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_fields_print_as_printf =
  let any_int = QCheck.(oneof [ int; small_signed_int; always min_int; always max_int ]) in
  let any_float =
    QCheck.(
      oneof
        [
          map Int64.float_of_bits int64;
          oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 5e-324 ];
        ])
  in
  QCheck.Test.make ~name:"fields print as %d and %h" ~count:300
    QCheck.(pair (list_of_size (Gen.return 6) any_int) (list_of_size (Gen.return 4) any_float))
    (fun (ints, floats) ->
      match (ints, floats) with
      | [ tc; bc; uif; pl; sc; regs ], [ t; o; m; r ] ->
          let params =
            {
              Params.threads_per_block = tc;
              block_count = bc;
              unroll = uif;
              l1_pref_kb = pl;
              staging = sc;
              fast_math = true;
            }
          in
          let im = { Gat_core.Imix.per_category = [| m |]; reg_operands = r } in
          let v =
            {
              Variant.params;
              time_ms = t;
              occupancy = o;
              registers = regs;
              dynamic_mix = im;
              est_mix = im;
            }
          in
          let text =
            Disk_cache.checkpoint_text
              {
                Disk_cache.done_points = tc;
                variants = [ v ];
                failures = [ { Variant.failed_params = params; message = "m"; attempts = regs } ];
                unsafe = [];
              }
          in
          let p = Printf.sprintf "%d %d %d %d %d 1" tc bc uif pl sc in
          List.for_all (contains text)
            [
              Printf.sprintf "\ndone %d\n" tc;
              Printf.sprintf "\n%s %d m\n" p regs;
              Printf.sprintf "\n1 %h %h\n" m r;
              Printf.sprintf "\n%s %h %h %d 0 0\n" p t o regs;
            ]
      | _ -> false)

let cleanup () =
  Store.set_enabled Disk_cache.cache true;
  ignore (Store.clear Disk_cache.cache);
  try if Sys.file_exists scratch then Sys.rmdir scratch
  with Sys_error _ -> ()

let () =
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "gat_disk_cache"
        [
          ( "format",
            [
              Alcotest.test_case "scratch dir" `Quick test_scratch_dir;
              Alcotest.test_case "miss on empty" `Quick test_miss_on_empty;
              Alcotest.test_case "roundtrip bit-exact" `Quick test_store_find_roundtrip;
              Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
              Alcotest.test_case "float constants keyed exactly" `Quick
                test_float_constants_keyed_exactly;
              Alcotest.test_case "version invalidation" `Quick test_version_invalidation;
              Alcotest.test_case "corruption tolerated" `Quick test_corruption_tolerated;
              Alcotest.test_case "disabled inert" `Quick test_disabled_is_inert;
              Alcotest.test_case "usage and clear" `Quick test_usage_and_clear;
              Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
              QCheck_alcotest.to_alcotest test_fields_print_as_printf;
            ] );
          ( "integrity",
            [
              QCheck_alcotest.to_alcotest test_truncation_property;
              QCheck_alcotest.to_alcotest test_byte_flip_property;
            ] );
          ( "degradation",
            [
              Alcotest.test_case "unwritable dir degrades" `Quick
                test_unwritable_dir_degrades;
            ] );
          ( "checkpoint",
            [
              Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
              Alcotest.test_case "corruption reads as absent" `Quick
                test_checkpoint_corruption;
              Alcotest.test_case "orphaned .ckpt reclaimed" `Quick
                test_orphaned_ckpt_reclaimed;
              Alcotest.test_case "usage counts orphaned checkpoints" `Quick
                test_usage_counts_orphaned_ckpt;
            ] );
          ( "tuner",
            [
              Alcotest.test_case "sweep restored" `Quick test_sweep_restored_across_processes;
              Alcotest.test_case "sweep_multi restored" `Quick test_sweep_multi_restored;
            ] );
        ])
