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
   summary and geometry-free block table of one program, computed on
   the backend miss.  None of them is persisted: each costs less to
   recompute than to write and read back as an artifact (DESIGN.md
   section 5.8). *)

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

let stats () =
  {
    classes = Classes.length classes;
    backends = Backends.length backends;
    hits = Classes.hits classes;
    misses = Classes.misses classes;
  }

let clear () =
  Classes.clear classes;
  Backends.clear backends

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

let compute gpu ~digest vp =
  let scheduled =
    Gat_util.Trace.span "compile.schedule" (fun () ->
        { vp with Program.blocks = List.map Schedule.block vp.Program.blocks })
  in
  let program, alloc_stats =
    Gat_util.Trace.span "compile.regalloc" (fun () -> Regalloc.run gpu scheduled)
  in
  let mem_summary =
    Gat_util.Trace.span "compile.coalescing" (fun () ->
        Gat_analysis.Coalescing.block_transactions gpu (Gat_cfg.Cfg.of_program vp))
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
