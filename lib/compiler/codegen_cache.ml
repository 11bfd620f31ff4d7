(* Backend memoization across the launch-geometry axes of a sweep.

   Schedule, register allocation and the static coalescing analysis
   depend only on the instruction streams, which TC and BC never
   shape; lowering bakes the launch geometry exclusively into the
   per-block execution weights.  The cache key is therefore the
   weight-free structural digest of the virtual program
   ([Fingerprint.program], computed once by [Driver.compile]) plus the
   device identity: every variant in the TC×BC plane of a sweep keys
   identically and compiles the backend exactly once per process.

   Two tiers.  The in-memory table gives same-process sharing at
   hashtable speed.  A memory miss then consults the persistent
   artifact store ({!Artifacts}) — scheduling per block body, register
   allocation and coalescing per program — which shares the results
   across runs and processes, and makes a one-block kernel edit
   recompile O(delta): the unchanged blocks' scheduled bodies still
   hit, only the edited block is rescheduled.

   The digest subsumes the old structural-equality walk: two programs
   with equal digests have equal labels, bodies and terminators, so
   re-attaching the current variant's weights is a positional zip. *)

open Gat_isa

type outcome = {
  program : Program.t;
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
}

type entry = {
  out_blocks : Basic_block.t list;
  out_stats : Regalloc.stats;
  out_summary : (string * Gat_analysis.Coalescing.access list) list;
}

type stats = { classes : int; hits : int; misses : int }

let table : (string * string, entry) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0
let m_hits = Gat_util.Metrics.counter "cache.codegen.hits"
let m_misses = Gat_util.Metrics.counter "cache.codegen.misses"

let stats () =
  Gat_util.Pool.with_lock lock (fun () ->
      { classes = Hashtbl.length table; hits = !hit_count; misses = !miss_count })

let clear () =
  Gat_util.Pool.with_lock lock (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0)

(* Re-attach the current variant's weights to the cached output blocks.
   Equal digests guarantee equal labels and layout order, and the
   backend passes preserve both, so a positional zip is exact. *)
let reweight vp_blocks out_blocks =
  List.map2
    (fun (v : Basic_block.t) (o : Basic_block.t) ->
      Basic_block.make ~weight:v.Basic_block.weight
        ~active_frac:v.Basic_block.active_frac o.Basic_block.label
        o.Basic_block.body o.Basic_block.term)
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

let compute gpu ~digest vp =
  let scheduled =
    Gat_util.Trace.span "compile.schedule" (fun () -> schedule_program vp)
  in
  let program, alloc_stats =
    Gat_util.Trace.span "compile.regalloc" (fun () -> regalloc gpu scheduled)
  in
  let mem_summary =
    Gat_util.Trace.span "compile.coalescing" (fun () -> coalescing gpu ~digest vp)
  in
  { program; alloc_stats; mem_summary }

let run ~(gpu : Gat_arch.Gpu.t) ~digest (vp : Program.t) =
  (* The digest covers everything the backend reads — the params that
     shape code (unroll, staging, fast_math) already shaped [vp], so
     they need no separate key component. *)
  let key = (Gat_arch.Gpu.identity gpu, digest) in
  let cached =
    Gat_util.Pool.with_lock lock (fun () -> Hashtbl.find_opt table key)
  in
  match cached with
  | Some e ->
      Gat_util.Pool.with_lock lock (fun () -> incr hit_count);
      Gat_util.Metrics.incr m_hits;
      let blocks = reweight vp.Program.blocks e.out_blocks in
      let program =
        Program.make ~name:vp.Program.name ~target:vp.Program.target
          ~regs_per_thread:e.out_stats.Regalloc.regs_used
          ~smem_static:vp.Program.smem_static
          ~smem_dynamic:vp.Program.smem_dynamic blocks
      in
      { program; alloc_stats = e.out_stats; mem_summary = e.out_summary }
  | None ->
      let r = compute gpu ~digest vp in
      Gat_util.Metrics.incr m_misses;
      Gat_util.Pool.with_lock lock (fun () ->
          incr miss_count;
          Hashtbl.replace table key
            {
              out_blocks = r.program.Program.blocks;
              out_stats = r.alloc_stats;
              out_summary = r.mem_summary;
            });
      r
