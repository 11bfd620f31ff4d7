(* Persistent cross-run sweep cache and sweep checkpoints.

   One file per (kernel, device, space, size, seed) sweep, named by an
   MD5 content hash so any change to the kernel source, parameter
   space, device description or simulator model version produces a
   different key and the stale entry is simply never read again.  The
   payload is a line-oriented text format with hexadecimal float
   literals ([%h]) so every stored Variant round-trips bit-exactly,
   sealed by {!Gat_util.Store} so that truncations and byte flips fail
   verification; anything that does not parse and verify is reported
   as a miss, never an error.

   Checkpoints live in the same store under the same keys and
   serialization: a [<key>.ckpt] file holds the completed prefix of an
   in-flight sweep (point count, variants, failures) so a killed run
   can resume instead of starting over. *)

let model_version = "gat-sim/3"

(* Format 4 adds the unsafe-variant section (verifier rejections);
   older files fail the header check and read as misses. *)
let header magic = magic ^ "\nmodel " ^ model_version ^ "\n"
let sweep_header = header "gat-sweep-cache 4"
let ckpt_header = header "gat-sweep-ckpt 2"

module Store = Gat_util.Store

let cache =
  Store.create ~name:"sweep cache" ~metrics:"cache.disk" ~site:"cache"
    ~dir:Gat_util.Cache_dir.root ~suffixes:[ ".sweep"; ".ckpt" ] ()

let ckpt_stores = Store.counter cache "ckpt.stores"
let ckpt_resumes = Store.counter cache "ckpt.resumes"

(* ---- keys ---- *)

let key space kernel gpu ~n ~seed =
  let payload =
    String.concat "\x00"
      [
        model_version;
        Gat_ir.Kernel.to_string kernel;
        Gat_arch.Gpu.identity gpu;
        Space.to_string space;
        string_of_int n;
        string_of_int seed;
      ]
  in
  Digest.to_hex (Digest.string payload)

let file_of_key k = Store.path cache (k ^ ".sweep")
let ckpt_of_key k = Store.path cache (k ^ ".ckpt")

(* ---- serialization: emit ---- *)

let emit_mix buf (m : Gat_core.Imix.t) =
  Buffer.add_string buf (string_of_int (Array.length m.Gat_core.Imix.per_category));
  Array.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf " %h" v))
    m.Gat_core.Imix.per_category;
  Buffer.add_string buf (Printf.sprintf " %h" m.Gat_core.Imix.reg_operands)

let emit_params buf (p : Gat_compiler.Params.t) =
  Printf.bprintf buf "%d %d %d %d %d %d" p.Gat_compiler.Params.threads_per_block
    p.Gat_compiler.Params.block_count p.Gat_compiler.Params.unroll
    p.Gat_compiler.Params.l1_pref_kb p.Gat_compiler.Params.staging
    (if p.Gat_compiler.Params.fast_math then 1 else 0)

(* The instruction mixes repeat heavily across a sweep — the estimated
   mix is per compile class, not per (TC, BC) point — so each entry
   carries a dictionary of distinct mixes and every variant line
   references two indices into it.  Cuts stored bytes (and parse time)
   roughly fivefold, and restored variants share mix structure, which
   is invisible to callers: mixes are immutable and compared
   structurally. *)
let emit_variant buf (v : Variant.t) ~dyn_idx ~est_idx =
  emit_params buf v.Variant.params;
  Printf.bprintf buf " %h %h %d %d %d\n" v.Variant.time_ms v.Variant.occupancy
    v.Variant.registers dyn_idx est_idx

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let emit_failure buf (f : Variant.failure) =
  emit_params buf f.Variant.failed_params;
  Printf.bprintf buf " %d %s\n" f.Variant.attempts (one_line f.Variant.message)

let emit_unsafe buf (u : Variant.unsafe) =
  emit_params buf u.Variant.unsafe_params;
  Printf.bprintf buf " %s\n" (one_line u.Variant.reason)

let emit_unsafe_section buf unsafe =
  Buffer.add_string buf (Printf.sprintf "unsafe %d\n" (List.length unsafe));
  List.iter (emit_unsafe buf) unsafe

(* The mix dictionary plus the variant lines — shared by entry and
   checkpoint files. *)
let emit_variants_section buf variants =
  let mix_ids : (Gat_core.Imix.t, int) Hashtbl.t = Hashtbl.create 64 in
  let mixes_rev = ref [] in
  let n_mixes = ref 0 in
  let mix_id m =
    match Hashtbl.find_opt mix_ids m with
    | Some i -> i
    | None ->
        let i = !n_mixes in
        incr n_mixes;
        Hashtbl.replace mix_ids m i;
        mixes_rev := m :: !mixes_rev;
        i
  in
  let refs =
    List.map
      (fun (v : Variant.t) ->
        (mix_id v.Variant.dynamic_mix, mix_id v.Variant.est_mix))
      variants
  in
  Buffer.add_string buf (Printf.sprintf "mixes %d\n" !n_mixes);
  List.iter
    (fun m ->
      emit_mix buf m;
      Buffer.add_char buf '\n')
    (List.rev !mixes_rev);
  Buffer.add_string buf
    (Printf.sprintf "variants %d\n" (List.length variants));
  List.iter2
    (fun v (dyn_idx, est_idx) -> emit_variant buf v ~dyn_idx ~est_idx)
    variants refs

(* ---- serialization: parse ---- *)

(* Fields are read in sequence, never inside a record literal, whose
   evaluation order is unspecified. *)
let read_params cur =
  let threads_per_block = Store.int cur in
  let block_count = Store.int cur in
  let unroll = Store.int cur in
  let l1_pref_kb = Store.int cur in
  let staging = Store.int cur in
  let fast_math = Store.int cur <> 0 in
  {
    Gat_compiler.Params.threads_per_block;
    block_count;
    unroll;
    l1_pref_kb;
    staging;
    fast_math;
  }

let read_mix cur =
  Store.start cur;
  let n = Store.int cur in
  if n < 0 || n > 1024 then Store.bad ();
  let per_category = Array.init n (fun _ -> Store.float cur) in
  let reg_operands = Store.float cur in
  Store.end_line cur;
  { Gat_core.Imix.per_category; reg_operands }

let read_variant cur mixes =
  Store.start cur;
  let params = read_params cur in
  let time_ms = Store.float cur in
  let occupancy = Store.float cur in
  let registers = Store.int cur in
  let mix_ref () =
    let i = Store.int cur in
    if i < 0 || i >= Array.length mixes then Store.bad ();
    mixes.(i)
  in
  let dynamic_mix = mix_ref () in
  let est_mix = mix_ref () in
  Store.end_line cur;
  { Variant.params; time_ms; occupancy; registers; dynamic_mix; est_mix }

let read_failure cur =
  Store.start cur;
  let failed_params = read_params cur in
  let attempts = Store.int cur in
  if attempts < 1 then Store.bad ();
  let message = Store.rest cur in
  { Variant.failed_params; message; attempts }

let read_unsafe cur =
  Store.start cur;
  let unsafe_params = read_params cur in
  let reason = Store.rest cur in
  { Variant.unsafe_params; reason }

let read_unsafe_section cur =
  List.init (Store.counted cur "unsafe") (fun _ -> read_unsafe cur)

let read_variants_section cur =
  let n_mixes = Store.counted cur "mixes" in
  if n_mixes > 1_000_000 then Store.bad ();
  let mixes = Array.init n_mixes (fun _ -> read_mix cur) in
  List.init (Store.counted cur "variants") (fun _ -> read_variant cur mixes)

(* ---- store / find ---- *)

let store space kernel gpu ~n ~seed variants unsafe =
  Store.store cache ~header:sweep_header
    (file_of_key (key space kernel gpu ~n ~seed))
    (fun buf ->
      emit_unsafe_section buf unsafe;
      emit_variants_section buf variants)

let find space kernel gpu ~n ~seed =
  Store.find cache ~header:sweep_header
    (file_of_key (key space kernel gpu ~n ~seed))
    (fun cur ->
      let unsafe = read_unsafe_section cur in
      let variants = read_variants_section cur in
      (variants, unsafe))

(* ---- checkpoints ---- *)

type checkpoint = {
  done_points : int;  (** Completed prefix of [Space.points]. *)
  variants : Variant.t list;
  failures : Variant.failure list;
  unsafe : Variant.unsafe list;
}

let emit_checkpoint ckpt buf =
  Printf.bprintf buf "done %d\nfailures %d\n" ckpt.done_points
    (List.length ckpt.failures);
  List.iter (emit_failure buf) ckpt.failures;
  emit_unsafe_section buf ckpt.unsafe;
  emit_variants_section buf ckpt.variants

let read_checkpoint cur =
  let done_points = Store.counted cur "done" in
  let failures =
    List.init (Store.counted cur "failures") (fun _ -> read_failure cur)
  in
  let unsafe = read_unsafe_section cur in
  let variants = read_variants_section cur in
  { done_points; variants; failures; unsafe }

(* Path-addressed checkpoint I/O: the exact serialization of keyed
   checkpoints, but writable to any path (or carried as text in a
   shard holder's record).  Finished [.part] files are ordinary
   checkpoints whose [done_points] is relative to the shard's range.
   Unlike {!checkpoint_store},
   {!checkpoint_write} is coordination state, not a cache optimization:
   it ignores the enabled/degraded latches and raises on failure so
   the shard layer can apply its own retry policy. *)
let checkpoint_write ~path ckpt =
  Store.write cache ~header:ckpt_header path (emit_checkpoint ckpt)

let checkpoint_read path = Store.read cache ~header:ckpt_header path read_checkpoint

let checkpoint_text ckpt =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ckpt_header;
  emit_checkpoint ckpt buf;
  Buffer.contents buf

let checkpoint_of_text s = Store.parse ~header:ckpt_header s read_checkpoint

let checkpoint_store space kernel gpu ~n ~seed ckpt =
  Store.store cache ~counter:ckpt_stores ~header:ckpt_header
    (ckpt_of_key (key space kernel gpu ~n ~seed))
    (emit_checkpoint ckpt)

let checkpoint_find space kernel gpu ~n ~seed =
  if not (Store.enabled cache) then None
  else
    let c = checkpoint_read (ckpt_of_key (key space kernel gpu ~n ~seed)) in
    if Option.is_some c then Gat_util.Metrics.incr ckpt_resumes;
    c

let checkpoint_clear space kernel gpu ~n ~seed =
  let path = ckpt_of_key (key space kernel gpu ~n ~seed) in
  try Sys.remove path with Sys_error _ -> ()
