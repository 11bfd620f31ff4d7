(* Backend memoization across the launch-geometry axes of a sweep.

   Schedule, register allocation and the static coalescing analysis
   depend only on the instruction streams, which TC and BC never
   shape; lowering bakes the launch geometry exclusively into the
   per-block execution weights.  Every variant in the TC×BC plane of a
   sweep therefore lowers to the same code, and compiles the backend
   exactly once per process.

   Lookup is cheap on purpose: a hit is the common case (a 5,120-point
   sweep has one to five code shapes), so it must cost less than
   hashing the program.  A weight-free summary (device, program name,
   instruction count, shared-memory footprint) picks a bucket, and
   [Fingerprint.same_code] — exact equality over everything the digest
   covers — picks the entry.  Only a miss serializes and hashes the
   program; the entry keeps that digest, so hits reuse it.

   An entry also keeps the geometry-free part of the block table, built
   once when the entry is created; a compile completes it with the few
   rows its own parameters change.

   Two tiers.  A memory miss consults the persistent artifact store
   ({!Artifacts}) — scheduling per block body, register allocation and
   coalescing per program — which shares the results across runs and
   processes, and makes a one-block kernel edit recompile O(delta): the
   unchanged blocks' scheduled bodies still hit, only the edited block
   is rescheduled. *)

open Gat_isa

type outcome = {
  program : Program.t;
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
  digest : string;
  shape : Block_table.shape;
}

(* Immutable once published: [code] is the virtual program the entry
   was built from (its weights are ignored), [result] the miss's
   outcome, whose blocks a hit re-weights. *)
type entry = { code : Program.t; result : outcome }

type stats = { classes : int; hits : int; misses : int }

(* Bucket: device identity, program name, instruction count, shared
   memory per block — weight-free, so a bucket holds every variant of
   one code shape, and rarely more than one shape. *)
let table : (string * string * int * int, entry list) Hashtbl.t =
  Hashtbl.create 64

let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0
let m_hits = Gat_util.Metrics.counter "cache.codegen.hits"
let m_misses = Gat_util.Metrics.counter "cache.codegen.misses"

let stats () =
  Gat_util.Pool.with_lock lock (fun () ->
      {
        classes = Hashtbl.fold (fun _ b n -> n + List.length b) table 0;
        hits = !hit_count;
        misses = !miss_count;
      })

let clear () =
  Gat_util.Pool.with_lock lock (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0)

(* Re-attach the current variant's weights to the cached output blocks.
   Equal code guarantees equal labels and layout order, and the backend
   passes preserve both, so a positional zip is exact. *)
let reweight vp_blocks out_blocks =
  List.map2
    (fun (v : Basic_block.t) (o : Basic_block.t) ->
      {
        o with
        Basic_block.weight = v.Basic_block.weight;
        active_frac = v.Basic_block.active_frac;
      })
    vp_blocks out_blocks

(* Per-block scheduling through the artifact store: each body is its
   own content-addressed unit, so after a one-block edit every other
   block's scheduled body is served from disk.  Single-instruction
   bodies are a fixed point of the scheduler — not worth a file. *)
let schedule_block (b : Basic_block.t) =
  match b.Basic_block.body with
  | [] | [ _ ] -> Schedule.block b
  | body -> (
      let key = Artifacts.sched_key body in
      match Artifacts.find_sched ~key with
      | Some scheduled ->
          Basic_block.make ~weight:b.Basic_block.weight
            ~active_frac:b.Basic_block.active_frac b.Basic_block.label
            scheduled b.Basic_block.term
      | None ->
          let sb = Schedule.block b in
          Artifacts.store_sched ~key sb.Basic_block.body;
          sb)

let schedule_program (vp : Program.t) =
  let blocks = List.map schedule_block vp.Program.blocks in
  Program.make ~name:vp.Program.name ~target:vp.Program.target
    ~regs_per_thread:vp.Program.regs_per_thread
    ~smem_static:vp.Program.smem_static ~smem_dynamic:vp.Program.smem_dynamic
    blocks

let regalloc gpu scheduled =
  let key = Artifacts.ra_key ~gpu scheduled in
  match Artifacts.find_ra ~key with
  | Some (blocks, st) ->
      let blocks = reweight scheduled.Program.blocks blocks in
      let program =
        Program.make ~name:scheduled.Program.name
          ~target:scheduled.Program.target
          ~regs_per_thread:st.Regalloc.regs_used
          ~smem_static:scheduled.Program.smem_static
          ~smem_dynamic:scheduled.Program.smem_dynamic blocks
      in
      (program, st)
  | None ->
      let program, st = Regalloc.run gpu scheduled in
      Artifacts.store_ra ~key program st;
      (program, st)

let coalescing gpu ~digest vp =
  let key = Artifacts.coal_key ~gpu digest in
  match Artifacts.find_coal ~key with
  | Some summary -> summary
  | None ->
      let summary =
        Gat_analysis.Coalescing.block_transactions gpu
          (Gat_cfg.Cfg.of_program vp)
      in
      Artifacts.store_coal ~key summary;
      summary

let compute gpu vp =
  let digest = Fingerprint.program vp in
  let scheduled =
    Gat_util.Trace.span "compile.schedule" (fun () -> schedule_program vp)
  in
  let program, alloc_stats =
    Gat_util.Trace.span "compile.regalloc" (fun () -> regalloc gpu scheduled)
  in
  let mem_summary =
    Gat_util.Trace.span "compile.coalescing" (fun () -> coalescing gpu ~digest vp)
  in
  let shape =
    Gat_util.Trace.span "compile.block_table" (fun () ->
        Block_table.shape ~gpu ~mem_summary program)
  in
  { program; alloc_stats; mem_summary; digest; shape }

let find bucket vp = List.find_opt (fun e -> Fingerprint.same_code e.code vp) bucket

let run ~(gpu : Gat_arch.Gpu.t) (vp : Program.t) =
  let key =
    ( Gat_arch.Gpu.identity gpu,
      vp.Program.name,
      Program.instruction_count vp,
      Program.smem_per_block vp )
  in
  let bucket () = Option.value ~default:[] (Hashtbl.find_opt table key) in
  (* Buckets are immutable lists: compare outside the lock. *)
  match find (Gat_util.Pool.with_lock lock bucket) vp with
  | Some e ->
      Gat_util.Pool.with_lock lock (fun () -> incr hit_count);
      Gat_util.Metrics.incr m_hits;
      let r = e.result in
      {
        r with
        program =
          {
            r.program with
            Program.blocks = reweight vp.Program.blocks r.program.Program.blocks;
          };
      }
  | None ->
      let r = compute gpu vp in
      Gat_util.Metrics.incr m_misses;
      Gat_util.Pool.with_lock lock (fun () ->
          incr miss_count;
          let b = bucket () in
          if Option.is_none (find b vp) then
            Hashtbl.replace table key ({ code = vp; result = r } :: b));
      r
