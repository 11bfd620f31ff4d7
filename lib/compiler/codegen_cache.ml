(* Code classes and the backend results they share.

   TC and BC are launch parameters: they never shape code.  A code
   class — (kernel, device, UIF, SC, fast-math) plus the dynamic shared
   memory the program declares — is lowered once per process
   ({!Lowering.code}); every point of the class only binds its launch
   geometry ({!Lowering.instantiate}).  The class's program digest is
   computed once, on the miss that lowers it.

   Kernels are matched by physical identity: they are immutable, so an
   equal but distinct kernel value costs one extra lowering, never a
   wrong answer.  Classes whose code coincides share one backend result
   through a table keyed by (device, digest).

   A backend result is the schedule, register allocation, coalescing
   summary and geometry-free block table of one program.  A backend
   miss consults the persistent artifact store ({!Artifacts}) —
   scheduling per block body, register allocation and coalescing per
   program — which shares the results across runs and processes, and
   makes a one-block kernel edit recompile O(delta): the unchanged
   blocks' scheduled bodies still hit, only the edited block is
   rescheduled. *)

open Gat_isa

type outcome = {
  program : Program.t;
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
  digest : string;
  shape : Block_table.shape;
}

(* Immutable once published. *)
type entry = { code : Lowering.code; result : outcome }

type stats = { classes : int; backends : int; hits : int; misses : int }

(* Class key: the kernel, matched by physical identity (hashed by its
   name), device identity, UIF, SC, fast-math, dynamic smem. *)
module Classes = Gat_util.Memo.Make (struct
  type t = Gat_ir.Kernel.t * string * int * int * bool * int

  let equal (k, g, u, s, f, m) (k', g', u', s', f', m') =
    k == k' && String.equal g g' && u = u' && s = s' && f = f' && m = m'

  let hash (k, g, u, s, f, m) =
    Hashtbl.hash (k.Gat_ir.Kernel.name, g, u, s, f, m)
end)

(* Backend key: device identity, program digest. *)
module Backends = Gat_util.Memo.Make (struct
  type t = string * string

  let equal = ( = )
  let hash = Hashtbl.hash
end)

(* A class memoizes its typecheck verdict too: an ill-typed kernel is
   checked once, not once per point. *)
let classes : (entry, string) result Classes.t =
  Classes.create
    ~hits:(Gat_util.Metrics.counter "cache.codegen.hits")
    ~misses:(Gat_util.Metrics.counter "cache.codegen.misses")
    ()

let backends : outcome Backends.t = Backends.create ()

(* Scheduled block bodies by artifact key: each shared body is
   scheduled or read from the store once, at any job count. *)
module Scheds = Gat_util.Memo.Make (String)

let scheds : Gat_isa.Instruction.t list Scheds.t = Scheds.create ()

let stats () =
  {
    classes = Classes.length classes;
    backends = Backends.length backends;
    hits = Classes.hits classes;
    misses = Classes.misses classes;
  }

let clear () =
  Classes.clear classes;
  Backends.clear backends;
  Scheds.clear scheds

(* Attach a point's weights to a backend program.  Equal code
   guarantees equal labels and layout order, and the backend passes
   preserve both, so a positional zip is exact. *)
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
  | body ->
      let key = Artifacts.sched_key body in
      let scheduled =
        Scheds.find_or_compute scheds key (fun () ->
            match Artifacts.find_sched ~key with
            | Some scheduled -> scheduled
            | None ->
                let s = (Schedule.block b).Basic_block.body in
                Artifacts.store_sched ~key s;
                s)
      in
      { b with Basic_block.body = scheduled }

let schedule_program (vp : Program.t) =
  { vp with Program.blocks = List.map schedule_block vp.Program.blocks }

let regalloc gpu scheduled =
  let key = Artifacts.ra_key ~gpu scheduled in
  match Artifacts.find_ra ~key with
  | Some (blocks, st) ->
      ({ scheduled with Program.blocks; regs_per_thread = st.Regalloc.regs_used }, st)
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
  let shape =
    Gat_util.Trace.span "compile.block_table" (fun () ->
        Block_table.shape ~gpu ~mem_summary program)
  in
  { program; alloc_stats; mem_summary; digest; shape }

let instantiate code (p : Params.t) =
  Gat_util.Trace.span "compile.lower" (fun () ->
      Lowering.instantiate code ~tc:p.Params.threads_per_block
        ~bc:p.Params.block_count)

(* A class miss lowers the code, hashes its first instantiation and
   shares the backend result of any class with the same code. *)
let add ~gpu ~gpu_id kernel (p : Params.t) =
  let code =
    Gat_util.Trace.span "compile.lower" (fun () ->
        Lowering.code kernel gpu ~unroll:p.Params.unroll
          ~staging:p.Params.staging ~fast_math:p.Params.fast_math)
  in
  let ((vp, _) as point) = instantiate code p in
  let digest = Fingerprint.program vp in
  let result =
    Backends.find_or_compute backends (gpu_id, digest) (fun () ->
        compute gpu ~digest vp)
  in
  ({ code; result }, point)

let run ~(gpu : Gat_arch.Gpu.t) kernel (p : Params.t) =
  let gpu_id = Gat_arch.Gpu.identity gpu in
  let key =
    ( kernel,
      gpu_id,
      p.Params.unroll,
      p.Params.staging,
      p.Params.fast_math,
      Lowering.smem_dynamic ~staging:p.Params.staging
        ~tc:p.Params.threads_per_block )
  in
  (* The miss that lowers a class keeps the instantiation it hashed. *)
  let first = ref None in
  let found =
    Classes.find_or_compute classes key (fun () ->
        Result.map
          (fun () ->
            let e, point = add ~gpu ~gpu_id kernel p in
            first := Some point;
            e)
          (Gat_ir.Typecheck.kernel kernel))
  in
  Result.map
    (fun e ->
      let vp, profile =
        match !first with Some point -> point | None -> instantiate e.code p
      in
      let r = e.result in
      let blocks = reweight vp.Program.blocks r.program.Program.blocks in
      (vp, profile, { r with program = { r.program with Program.blocks } }))
    found
