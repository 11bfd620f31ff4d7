open Gat_ir
open Gat_isa

(* ---- what instantiation binds ---- *)

(* A block weight as a function of the thread count TC * BC.  The code
   pass composes the same [Weight] operations, in the same order, as a
   lowering that knew the geometry up front, so an instantiated weight
   is bit-identical to that one; rescaling a weight lowered for one
   thread by 1/(TC * BC) would be equal only algebraically. *)
type weight = int -> Weight.t

let w_fixed w : weight = fun _ -> w
let w_add a b : weight = fun t -> Weight.add (a t) (b t)
let w_mul a b : weight = fun t -> Weight.mul (a t) (b t)
let w_scale k a : weight = fun t -> Weight.scale k (a t)

(* The launch geometry of one instantiation.  [issues] memoizes the
   parallel loop's exact grid-stride counts per (trip polynomial,
   size); it belongs to one compile's profile, never to the shared
   code. *)
type geometry = {
  tc : int;
  bc : int;
  warps_per_block : int;
  total_warps : int;
  issues : (Weight.t * int, int * int) Hashtbl.t;
}

type count = geometry -> int -> Profile.agg

type code = {
  program : Program.t;  (* weights unset; smem_dynamic unset *)
  weights : weight list;  (* one per block, layout order *)
  staging : int;
  work_items : geometry -> int -> int;
  rules : (string * count) list;
}

type ctx = {
  kernel : Kernel.t;
  unroll : int;
  fast_math : bool;
  (* block builder *)
  mutable blocks_rev : (Basic_block.t * weight) list;
  mutable label : string;
  mutable instrs_rev : Instruction.t list;
  mutable weight : weight;
  mutable active : float;
  mutable next_label : int;
  mutable next_gpr : int;
  mutable next_pred : int;
  (* IR environment *)
  var_regs : (string, Register.t) Hashtbl.t;
  var_types : (string, Dtype.t) Hashtbl.t;
  var_offsets : (string, int) Hashtbl.t;  (* unroll-copy shifts *)
  tainted_vars : (string, unit) Hashtbl.t;  (* thread-dependent scalars *)
  defs : (string, Expr.t) Hashtbl.t;  (* inlined straight-line defs *)
  array_bases : (string, Register.t) Hashtbl.t;
  mutable n_reg : Register.t;
  (* profile construction *)
  mutable parallel_var : string option;
  mutable work_items_fn : geometry -> int -> int;
  mutable agg_fn : count;
  mutable count_rules : (string * count) list;  (* reversed *)
}

(* ---- builder primitives ---- *)

let fresh_gpr ctx =
  let r = Register.gpr ctx.next_gpr in
  ctx.next_gpr <- ctx.next_gpr + 1;
  r

let fresh_pred ctx =
  let p = Register.pred ctx.next_pred in
  ctx.next_pred <- ctx.next_pred + 1;
  p

let emit ctx ins = ctx.instrs_rev <- ins :: ctx.instrs_rev

let emit1 ctx ?pred ?cmp op dst srcs =
  emit ctx (Instruction.make ?pred ?cmp ~dst op srcs)

let cmp_of_ir (op : Expr.cmpop) : Instruction.cmp =
  match op with
  | Expr.Eq -> Instruction.EQ
  | Expr.Ne -> Instruction.NE
  | Expr.Lt -> Instruction.LT
  | Expr.Le -> Instruction.LE
  | Expr.Gt -> Instruction.GT
  | Expr.Ge -> Instruction.GE

let new_label ctx =
  let l = Printf.sprintf "BB%d" ctx.next_label in
  ctx.next_label <- ctx.next_label + 1;
  l

let end_block ctx term =
  let block =
    Basic_block.make ~active_frac:ctx.active ctx.label
      (List.rev ctx.instrs_rev) term
  in
  ctx.blocks_rev <- (block, ctx.weight) :: ctx.blocks_rev;
  ctx.instrs_rev <- []

let start_block ctx label ~weight ~active ~agg =
  ctx.label <- label;
  ctx.weight <- weight;
  ctx.active <- active;
  ctx.agg_fn <- agg;
  ctx.count_rules <- (label, agg) :: ctx.count_rules

let memo1 f =
  let cache = Hashtbl.create 8 in
  fun n ->
    match Hashtbl.find_opt cache n with
    | Some v -> v
    | None ->
        let v = f n in
        Hashtbl.replace cache n v;
        v

(* ---- IR typing, taint and straight-line definitions ---- *)

let type_env ctx =
  Hashtbl.fold (fun v ty acc -> (v, ty) :: acc) ctx.var_types []

let type_of ctx e = Typecheck.expr ctx.kernel (type_env ctx) e

let expr_tainted ctx e =
  List.exists (Hashtbl.mem ctx.tainted_vars) (Expr.free_vars e)

(* Inline current defs into an expression: the result mentions only
   variables with no recorded definition (loop indices, in practice). *)
let inline_defs ctx e =
  Expr.map_vars
    (fun v ->
      match Hashtbl.find_opt ctx.defs v with
      | Some d -> d
      | None -> Expr.Var v)
    e

(* ---- registers for IR variables ---- *)

let var_reg ctx v ty =
  match Hashtbl.find_opt ctx.var_regs v with
  | Some r -> r
  | None ->
      let r = fresh_gpr ctx in
      Hashtbl.replace ctx.var_regs v r;
      Hashtbl.replace ctx.var_types v ty;
      r

(* Memory coalescing is no longer estimated here by numeric sampling:
   the static affine pass ([Gat_analysis.Coalescing]) derives per-access
   transaction counts from the emitted code itself; see [Driver]. *)

(* ---- expression code generation ---- *)

let as_reg ctx (operand : Operand.t) =
  match operand with
  | Operand.Reg r -> r
  | Operand.Imm _ | Operand.FImm _ | Operand.Special _ ->
      let r = fresh_gpr ctx in
      emit1 ctx Opcode.MOV r [ operand ];
      r
  | Operand.Addr _ -> invalid_arg "Lowering.as_reg: address operand"

let dst_or_fresh ctx dst = match dst with Some r -> r | None -> fresh_gpr ctx

let elem_size ctx a = Dtype.size_bytes (Kernel.find_array ctx.kernel a).Kernel.elem

let rec gen_expr ?dst ctx (e : Expr.t) : Operand.t =
  match e with
  | Expr.Int i -> finish_leaf ctx dst (Operand.Imm i)
  | Expr.Float f -> finish_leaf ctx dst (Operand.FImm f)
  | Expr.Size -> finish_leaf ctx dst (Operand.Reg ctx.n_reg)
  | Expr.Var v -> (
      let r =
        match Hashtbl.find_opt ctx.var_regs v with
        | Some r -> r
        | None -> invalid_arg ("Lowering: undefined scalar " ^ v)
      in
      let offset = Option.value ~default:0 (Hashtbl.find_opt ctx.var_offsets v) in
      if offset = 0 then finish_leaf ctx dst (Operand.Reg r)
      else begin
        let t = dst_or_fresh ctx dst in
        emit1 ctx Opcode.IADD t [ Operand.Reg r; Operand.Imm offset ];
        Operand.Reg t
      end)
  | Expr.Read (a, idxs) ->
      let addr = gen_address ctx a idxs in
      let t = dst_or_fresh ctx dst in
      emit1 ctx Opcode.LDG t [ addr ];
      Operand.Reg t
  | Expr.Bin (op, x, y) -> gen_bin ?dst ctx op x y
  | Expr.Cmp (_, _, _) ->
      let p = gen_cond ctx e in
      finish_leaf ctx dst (Operand.Reg p)
  | Expr.Un (op, x) -> gen_un ?dst ctx op x
  | Expr.Select (c, x, y) ->
      let p = gen_cond ctx c in
      let xo = gen_expr ctx x and yo = gen_expr ctx y in
      let t = dst_or_fresh ctx dst in
      emit1 ctx Opcode.SEL t [ xo; yo; Operand.Reg p ];
      Operand.Reg t

and finish_leaf ctx dst operand =
  match dst with
  | None -> operand
  | Some r ->
      emit1 ctx Opcode.MOV r [ operand ];
      Operand.Reg r

(* Address of a[idxs]: flatten row-major, scale by element size, add the
   array's base register. *)
and gen_address ctx a idxs =
  let base =
    match Hashtbl.find_opt ctx.array_bases a with
    | Some r -> r
    | None -> invalid_arg ("Lowering: unknown array " ^ a)
  in
  let size = elem_size ctx a in
  match idxs with
  | [ i ] -> (
      match gen_expr ctx i with
      | Operand.Imm k -> Operand.Addr { space = Operand.Global; base; offset = k * size }
      | io ->
          let t = fresh_gpr ctx in
          emit1 ctx Opcode.IMAD t [ io; Operand.Imm size; Operand.Reg base ];
          Operand.Addr { space = Operand.Global; base = t; offset = 0 })
  | [ i; j ] ->
      let io = gen_expr ctx i and jo = gen_expr ctx j in
      let flat = fresh_gpr ctx in
      emit1 ctx Opcode.IMAD flat [ io; Operand.Reg ctx.n_reg; jo ];
      let t = fresh_gpr ctx in
      emit1 ctx Opcode.IMAD t
        [ Operand.Reg flat; Operand.Imm size; Operand.Reg base ];
      Operand.Addr { space = Operand.Global; base = t; offset = 0 }
  | [ i; j; k ] ->
      let io = gen_expr ctx i and jo = gen_expr ctx j in
      let ko = gen_expr ctx k in
      let plane = fresh_gpr ctx in
      emit1 ctx Opcode.IMAD plane [ io; Operand.Reg ctx.n_reg; jo ];
      let flat = fresh_gpr ctx in
      emit1 ctx Opcode.IMAD flat
        [ Operand.Reg plane; Operand.Reg ctx.n_reg; ko ];
      let t = fresh_gpr ctx in
      emit1 ctx Opcode.IMAD t
        [ Operand.Reg flat; Operand.Imm size; Operand.Reg base ];
      Operand.Addr { space = Operand.Global; base = t; offset = 0 }
  | _ -> invalid_arg ("Lowering: bad rank for array " ^ a)

and gen_bin ?dst ctx op x y =
  let ty = type_of ctx (Expr.Bin (op, x, y)) in
  let fast = ctx.fast_math in
  let t = dst_or_fresh ctx dst in
  if Dtype.is_float ty then begin
    let is64 = ty = Dtype.F64 in
    let fadd = if is64 then Opcode.DADD else Opcode.FADD in
    let fmul = if is64 then Opcode.DMUL else Opcode.FMUL in
    let ffma = if is64 then Opcode.DFMA else Opcode.FFMA in
    match op with
    | Expr.Add -> (
        (* Fuse (a*b) + c into FFMA where possible. *)
        match (x, y) with
        | Expr.Bin (Expr.Mul, a, b), c | c, Expr.Bin (Expr.Mul, a, b) ->
            let ao = gen_expr ctx a and bo = gen_expr ctx b in
            let co = gen_expr ctx c in
            emit1 ctx ffma t [ ao; bo; co ];
            Operand.Reg t
        | _ ->
            let xo = gen_expr ctx x and yo = gen_expr ctx y in
            emit1 ctx fadd t [ xo; yo ];
            Operand.Reg t)
    | Expr.Sub ->
        (* x - y as y*(-1) + x, keeping the FMA pipeline busy. *)
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        emit1 ctx ffma t [ yo; Operand.FImm (-1.0); xo ];
        Operand.Reg t
    | Expr.Mul ->
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        emit1 ctx fmul t [ xo; yo ];
        Operand.Reg t
    | Expr.Div ->
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        let yr = as_reg ctx yo in
        let r0 = fresh_gpr ctx in
        emit1 ctx Opcode.MUFU_RCP r0 [ Operand.Reg yr ];
        if fast then begin
          emit1 ctx fmul t [ xo; Operand.Reg r0 ];
          Operand.Reg t
        end
        else begin
          (* One Newton step: r1 = r0*(2 - y*r0), then x*r1. *)
          let e0 = fresh_gpr ctx in
          emit1 ctx ffma e0 [ Operand.Reg yr; Operand.Reg r0; Operand.FImm (-1.0) ];
          let r1 = fresh_gpr ctx in
          emit1 ctx ffma r1 [ Operand.Reg e0; Operand.Reg r0; Operand.Reg r0 ];
          emit1 ctx fmul t [ xo; Operand.Reg r1 ];
          Operand.Reg t
        end
    | Expr.Min | Expr.Max ->
        (* Third operand selects min (0) or max (1), as SASS's !PT. *)
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        let sel = if op = Expr.Max then 1 else 0 in
        emit1 ctx Opcode.FMNMX t [ xo; yo; Operand.Imm sel ];
        Operand.Reg t
  end
  else begin
    match op with
    | Expr.Add -> (
        match (x, y) with
        | Expr.Bin (Expr.Mul, a, b), c | c, Expr.Bin (Expr.Mul, a, b) ->
            let ao = gen_expr ctx a and bo = gen_expr ctx b in
            let co = gen_expr ctx c in
            emit1 ctx Opcode.IMAD t [ ao; bo; co ];
            Operand.Reg t
        | _ ->
            let xo = gen_expr ctx x and yo = gen_expr ctx y in
            emit1 ctx Opcode.IADD t [ xo; yo ];
            Operand.Reg t)
    | Expr.Sub ->
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        (* x - y = y*(-1) + x *)
        emit1 ctx Opcode.IMAD t [ yo; Operand.Imm (-1); xo ];
        Operand.Reg t
    | Expr.Mul ->
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        emit1 ctx Opcode.IMUL t [ xo; yo ];
        Operand.Reg t
    | Expr.Div ->
        (* Integer division by float reciprocal, as real GPUs do; the
           epsilon nudge keeps exact quotients exact under truncation
           (the hardware sequence has an equivalent fixup step). *)
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        let fx = fresh_gpr ctx and fy = fresh_gpr ctx in
        emit1 ctx Opcode.I2F fx [ xo ];
        emit1 ctx Opcode.I2F fy [ yo ];
        let r = fresh_gpr ctx in
        emit1 ctx Opcode.MUFU_RCP r [ Operand.Reg fy ];
        let q = fresh_gpr ctx in
        emit1 ctx Opcode.FMUL q [ Operand.Reg fx; Operand.Reg r ];
        let qe = fresh_gpr ctx in
        emit1 ctx Opcode.FADD qe [ Operand.Reg q; Operand.FImm 1e-6 ];
        emit1 ctx Opcode.F2I t [ Operand.Reg qe ];
        Operand.Reg t
    | Expr.Min | Expr.Max ->
        let xo = gen_expr ctx x and yo = gen_expr ctx y in
        let sel = if op = Expr.Max then 1 else 0 in
        emit1 ctx Opcode.IMNMX t [ xo; yo; Operand.Imm sel ];
        Operand.Reg t
  end

and gen_un ?dst ctx op x =
  let ty = type_of ctx x in
  let fast = ctx.fast_math in
  let t = dst_or_fresh ctx dst in
  let xo = gen_expr ctx x in
  match op with
  | Expr.Neg ->
      if Dtype.is_float ty then
        emit1 ctx Opcode.FMUL t [ xo; Operand.FImm (-1.0) ]
      else emit1 ctx Opcode.IMAD t [ xo; Operand.Imm (-1); Operand.Imm 0 ];
      Operand.Reg t
  | Expr.Abs ->
      if Dtype.is_float ty then begin
        let neg = fresh_gpr ctx in
        emit1 ctx Opcode.FMUL neg [ xo; Operand.FImm (-1.0) ];
        emit1 ctx Opcode.FMNMX t [ xo; Operand.Reg neg; Operand.Imm 1 ]
      end
      else begin
        let neg = fresh_gpr ctx in
        emit1 ctx Opcode.IMAD neg [ xo; Operand.Imm (-1); Operand.Imm 0 ];
        emit1 ctx Opcode.IMNMX t [ xo; Operand.Reg neg; Operand.Imm 1 ]
      end;
      Operand.Reg t
  | Expr.Sqrt ->
      if fast then emit1 ctx Opcode.MUFU_SQRT t [ xo ]
      else begin
        (* Residual-based refinement: e = r0^2 - x (zero when the seed
           is exact), t = r0 - e/2. *)
        let r0 = fresh_gpr ctx in
        emit1 ctx Opcode.MUFU_SQRT r0 [ xo ];
        let nx = fresh_gpr ctx in
        emit1 ctx Opcode.FMUL nx [ xo; Operand.FImm (-1.0) ];
        let e = fresh_gpr ctx in
        emit1 ctx Opcode.FFMA e [ Operand.Reg r0; Operand.Reg r0; Operand.Reg nx ];
        emit1 ctx Opcode.FFMA t [ Operand.Reg e; Operand.FImm (-0.5); Operand.Reg r0 ]
      end;
      Operand.Reg t
  | Expr.Recip ->
      if fast then emit1 ctx Opcode.MUFU_RCP t [ xo ]
      else begin
        let r0 = fresh_gpr ctx in
        emit1 ctx Opcode.MUFU_RCP r0 [ xo ];
        let e = fresh_gpr ctx in
        emit1 ctx Opcode.FFMA e [ xo; Operand.Reg r0; Operand.FImm (-1.0) ];
        emit1 ctx Opcode.FFMA t [ Operand.Reg e; Operand.Reg r0; Operand.Reg r0 ]
      end;
      Operand.Reg t
  | Expr.Exp ->
      let s = fresh_gpr ctx in
      emit1 ctx Opcode.FMUL s [ xo; Operand.FImm 1.4426950408889634 ];
      if fast then emit1 ctx Opcode.MUFU_EX2 t [ Operand.Reg s ]
      else begin
        let r0 = fresh_gpr ctx in
        emit1 ctx Opcode.MUFU_EX2 r0 [ Operand.Reg s ];
        emit1 ctx Opcode.FFMA t
          [ Operand.Reg r0; Operand.FImm 1.0; Operand.FImm 0.0 ]
      end;
      Operand.Reg t
  | Expr.Log ->
      let r0 = fresh_gpr ctx in
      emit1 ctx Opcode.MUFU_LG2 r0 [ xo ];
      if fast then
        emit1 ctx Opcode.FMUL t [ Operand.Reg r0; Operand.FImm 0.6931471805599453 ]
      else begin
        let r1 = fresh_gpr ctx in
        emit1 ctx Opcode.FMUL r1 [ Operand.Reg r0; Operand.FImm 0.6931471805599453 ];
        emit1 ctx Opcode.FFMA t
          [ Operand.Reg r1; Operand.FImm 1.0; Operand.FImm 0.0 ]
      end;
      Operand.Reg t
  | Expr.Sin | Expr.Cos ->
      let mufu = if op = Expr.Sin then Opcode.MUFU_SIN else Opcode.MUFU_COS in
      if fast then emit1 ctx mufu t [ xo ]
      else begin
        (* Range reduction before the SFU call. *)
        let k = fresh_gpr ctx in
        emit1 ctx Opcode.FMUL k [ xo; Operand.FImm 0.15915494309189535 ];
        let ki = fresh_gpr ctx in
        emit1 ctx Opcode.F2I ki [ Operand.Reg k ];
        let kf = fresh_gpr ctx in
        emit1 ctx Opcode.I2F kf [ Operand.Reg ki ];
        let red = fresh_gpr ctx in
        emit1 ctx Opcode.FFMA red
          [ Operand.Reg kf; Operand.FImm (-6.283185307179586); xo ];
        emit1 ctx mufu t [ Operand.Reg red ]
      end;
      Operand.Reg t

and gen_cond ctx (e : Expr.t) : Register.t =
  match e with
  | Expr.Cmp (op, x, y) ->
      let ty = type_of ctx x in
      let xo = gen_expr ctx x and yo = gen_expr ctx y in
      let p = fresh_pred ctx in
      let setp = if Dtype.is_float ty then Opcode.FSETP else Opcode.ISETP in
      emit1 ctx setp ~cmp:(cmp_of_ir op) p [ xo; yo ];
      p
  | _ ->
      let o = gen_expr ctx e in
      let p = fresh_pred ctx in
      emit1 ctx Opcode.ISETP ~cmp:Instruction.NE p [ o; Operand.Imm 0 ];
      p

(* ---- statement lowering ---- *)

(* Static (analyzer-visible) active-fraction guess for a thread-
   dependent two-way split; the simulator uses the Monte-Carlo profile
   instead. *)
let divergent_active = 0.5

let affine_or e fallback =
  match Affine.of_expr e with Some a -> a | None -> fallback

let rec lower_stmts ctx stmts = List.iter (lower_stmt ctx) stmts

and lower_stmt ctx (s : Stmt.t) =
  match s with
  | Stmt.Assign (v, e) ->
      let ty = type_of ctx e in
      let r = var_reg ctx v ty in
      if expr_tainted ctx e then Hashtbl.replace ctx.tainted_vars v ();
      Hashtbl.replace ctx.defs v (inline_defs ctx e);
      let (_ : Operand.t) = gen_expr ~dst:r ctx e in
      ()
  | Stmt.Store (a, idxs, e) ->
      let vo = gen_expr ctx e in
      let addr = gen_address ctx a idxs in
      emit ctx (Instruction.make Opcode.STG [ addr; vo ])
  | Stmt.Sync -> emit ctx (Instruction.make Opcode.BAR [ Operand.Imm 0 ])
  | Stmt.If (c, t_branch, e_branch) -> lower_if ctx c t_branch e_branch
  | Stmt.For l when l.Stmt.kind = Stmt.Parallel ->
      invalid_arg "Lowering: nested parallel loop"
  | Stmt.For l -> lower_seq_loop ctx l

and lower_if ctx c t_branch e_branch =
  let tainted = expr_tainted ctx c in
  let p = gen_cond ctx c in
  let then_l = new_label ctx in
  let else_l = if e_branch = [] then None else Some (new_label ctx) in
  let join_l = new_label ctx in
  let outer_weight = ctx.weight and outer_active = ctx.active in
  let parent = ctx.agg_fn in
  (* Exact P(condition) at size n, via Monte Carlo over the parallel
     index (the simulator's ground truth); [Profile] memoizes it
     process-wide under its own lock, so the code holds no table. *)
  let prob =
    let cond = inline_defs ctx c in
    match ctx.parallel_var with
    | Some pv ->
        let lo, hi =
          match Hashtbl.find_opt ctx.defs ("__bounds_" ^ pv) with
          | Some (Expr.Bin (Expr.Sub, hi, lo)) -> (lo, hi)
          | Some _ | None -> (Expr.Int 0, Expr.Size)
        in
        fun n -> Profile.monte_carlo_prob ~cond ~var:pv ~lo ~hi ~n
    | None -> fun _ -> 0.5
  in
  let branch_weight = w_scale 0.5 outer_weight in
  let branch_active =
    if tainted then outer_active *. divergent_active else outer_active
  in
  let agg_of ~taken g n =
    let pa = parent g n in
    let p_then = Float.max 0.0 (Float.min 1.0 (prob n)) in
    let p_side = if taken then p_then else 1.0 -. p_then in
    if tainted then begin
      (* A warp issues this side iff any lane takes it. *)
      let q = 1.0 -. ((1.0 -. p_side) ** 32.0) in
      if q <= 0.0 then { Profile.execs = 0.0; lanes = 1.0 }
      else
        {
          Profile.execs = pa.Profile.execs *. q;
          lanes = Float.min 1.0 (pa.Profile.lanes *. p_side /. q);
        }
    end
    else { pa with Profile.execs = pa.Profile.execs *. p_side }
  in
  let false_target = Option.value ~default:join_l else_l in
  end_block ctx
    (Basic_block.Cond_branch
       {
         pred = { Instruction.negated = false; reg = p };
         if_true = then_l;
         if_false = false_target;
       });
  start_block ctx then_l ~weight:branch_weight ~active:branch_active
    ~agg:(agg_of ~taken:true);
  lower_stmts ctx t_branch;
  end_block ctx (Basic_block.Jump join_l);
  (match else_l with
  | Some l ->
      start_block ctx l ~weight:branch_weight ~active:branch_active
        ~agg:(agg_of ~taken:false);
      lower_stmts ctx e_branch;
      end_block ctx (Basic_block.Jump join_l)
  | None -> ());
  start_block ctx join_l ~weight:outer_weight ~active:outer_active ~agg:parent

and lower_seq_loop ctx (l : Stmt.loop) =
  let u = if l.Stmt.step = 1 then ctx.unroll else 1 in
  let outer_weight = ctx.weight and outer_active = ctx.active in
  let parent = ctx.agg_fn in
  let lo_aff = affine_or l.Stmt.lo Weight.zero in
  let hi_aff = affine_or l.Stmt.hi (Weight.linear 1.0) in
  let trips_w = w_fixed (Affine.trip_count ~lo:lo_aff ~hi:hi_aff ~step:l.Stmt.step) in
  (* Exact iteration count at size n (bounds are uniform integers). *)
  let exact_range n =
    let lo = Weight.eval lo_aff ~n and hi = Weight.eval hi_aff ~n in
    max 0 (int_of_float (Float.round (hi -. lo)) / l.Stmt.step)
  in
  let v = l.Stmt.var in
  let rv = var_reg ctx v Dtype.I32 in
  Hashtbl.remove ctx.defs v;
  if expr_tainted ctx l.Stmt.lo || expr_tainted ctx l.Stmt.hi then
    Hashtbl.replace ctx.tainted_vars v ();
  let lo_op = gen_expr ctx l.Stmt.lo in
  let hi_op = gen_expr ctx l.Stmt.hi in
  let hi_r = as_reg ctx hi_op in
  emit1 ctx Opcode.MOV rv [ lo_op ];
  if u = 1 then begin
    let head_l = new_label ctx and body_l = new_label ctx in
    let exit_l = new_label ctx in
    end_block ctx (Basic_block.Jump head_l);
    let head_weight = w_add (w_mul outer_weight trips_w) outer_weight in
    let head_agg g n =
      let pa = parent g n in
      { pa with Profile.execs = pa.Profile.execs *. float_of_int (exact_range n + 1) }
    in
    let body_agg g n =
      let pa = parent g n in
      { pa with Profile.execs = pa.Profile.execs *. float_of_int (exact_range n) }
    in
    start_block ctx head_l ~weight:head_weight ~active:outer_active ~agg:head_agg;
    let p = fresh_pred ctx in
    emit1 ctx Opcode.ISETP ~cmp:Instruction.GE p [ Operand.Reg rv; Operand.Reg hi_r ];
    end_block ctx
      (Basic_block.Cond_branch
         {
           pred = { Instruction.negated = false; reg = p };
           if_true = exit_l;
           if_false = body_l;
         });
    start_block ctx body_l
      ~weight:(w_mul outer_weight trips_w)
      ~active:outer_active ~agg:body_agg;
    lower_stmts ctx l.Stmt.body;
    emit1 ctx Opcode.IADD rv [ Operand.Reg rv; Operand.Imm l.Stmt.step ];
    end_block ctx (Basic_block.Jump head_l);
    start_block ctx exit_l ~weight:outer_weight ~active:outer_active ~agg:parent
  end
  else begin
    (* Guarded main loop of stride u plus stride-1 remainder. *)
    let main_head = new_label ctx and main_body = new_label ctx in
    let rem_head = new_label ctx and rem_body = new_label ctx in
    let exit_l = new_label ctx in
    end_block ctx (Basic_block.Jump main_head);
    let main_trips_w = w_scale (1.0 /. float_of_int u) trips_w in
    let rem_trips_w = w_fixed (Weight.const (float_of_int (u - 1) /. 2.0)) in
    let main_trips n = exact_range n / u in
    let rem_trips n = exact_range n - (main_trips n * u) in
    let scaled f g n =
      let pa = parent g n in
      { pa with Profile.execs = pa.Profile.execs *. float_of_int (f n) }
    in
    start_block ctx main_head
      ~weight:(w_add (w_mul outer_weight main_trips_w) outer_weight)
      ~active:outer_active
      ~agg:(scaled (fun n -> main_trips n + 1));
    let last = fresh_gpr ctx in
    emit1 ctx Opcode.IADD last [ Operand.Reg rv; Operand.Imm (u - 1) ];
    let p = fresh_pred ctx in
    emit1 ctx Opcode.ISETP ~cmp:Instruction.GE p
      [ Operand.Reg last; Operand.Reg hi_r ];
    end_block ctx
      (Basic_block.Cond_branch
         {
           pred = { Instruction.negated = false; reg = p };
           if_true = rem_head;
           if_false = main_body;
         });
    start_block ctx main_body
      ~weight:(w_mul outer_weight main_trips_w)
      ~active:outer_active ~agg:(scaled main_trips);
    for k = 0 to u - 1 do
      Hashtbl.replace ctx.var_offsets v k;
      lower_stmts ctx l.Stmt.body
    done;
    Hashtbl.remove ctx.var_offsets v;
    emit1 ctx Opcode.IADD rv [ Operand.Reg rv; Operand.Imm u ];
    end_block ctx (Basic_block.Jump main_head);
    start_block ctx rem_head
      ~weight:(w_add (w_mul outer_weight rem_trips_w) outer_weight)
      ~active:outer_active
      ~agg:(scaled (fun n -> rem_trips n + 1));
    let p2 = fresh_pred ctx in
    emit1 ctx Opcode.ISETP ~cmp:Instruction.GE p2
      [ Operand.Reg rv; Operand.Reg hi_r ];
    end_block ctx
      (Basic_block.Cond_branch
         {
           pred = { Instruction.negated = false; reg = p2 };
           if_true = exit_l;
           if_false = rem_body;
         });
    start_block ctx rem_body
      ~weight:(w_mul outer_weight rem_trips_w)
      ~active:outer_active ~agg:(scaled rem_trips);
    lower_stmts ctx l.Stmt.body;
    emit1 ctx Opcode.IADD rv [ Operand.Reg rv; Operand.Imm 1 ];
    end_block ctx (Basic_block.Jump rem_head);
    start_block ctx exit_l ~weight:outer_weight ~active:outer_active ~agg:parent
  end

(* ---- kernel-level lowering ---- *)

let lower_parallel_loop ctx (l : Stmt.loop) =
  let lo_aff = affine_or l.Stmt.lo Weight.zero in
  let hi_aff = affine_or l.Stmt.hi (Weight.linear 1.0) in
  let trips = Affine.trip_count ~lo:lo_aff ~hi:hi_aff ~step:l.Stmt.step in
  let per_thread t = Weight.scale (1.0 /. float_of_int t) trips in
  let v = l.Stmt.var in
  ctx.parallel_var <- Some v;
  Hashtbl.replace ctx.defs ("__bounds_" ^ v)
    (Expr.Bin (Expr.Sub, l.Stmt.hi, l.Stmt.lo));
  let rv = var_reg ctx v Dtype.I32 in
  Hashtbl.replace ctx.tainted_vars v ();
  (* Exact per-warp grid-stride issue counts: a function of the trip
     polynomial, the geometry and n, memoized in the geometry. *)
  let exact g n =
    match Hashtbl.find_opt g.issues (trips, n) with
    | Some v -> v
    | None ->
        let r = max 0 (int_of_float (Float.round (Weight.eval trips ~n))) in
        let t = g.tc * g.bc in
        let issues = ref 0 in
        for b = 0 to g.bc - 1 do
          for wi = 0 to g.warps_per_block - 1 do
            let g0 = (b * g.tc) + (wi * 32) in
            if g0 < r then issues := !issues + ((r - g0 + t - 1) / t)
          done
        done;
        Hashtbl.replace g.issues (trips, n) (r, !issues);
        (r, !issues)
  in
  ctx.work_items_fn <- (fun g n -> fst (exact g n));
  let parent = ctx.agg_fn in
  let body_agg g n =
    let pa = parent g n in
    let r, issues = exact g n in
    if issues = 0 then { Profile.execs = 0.0; lanes = 1.0 }
    else
      {
        Profile.execs = pa.Profile.lanes *. float_of_int issues;
        lanes = float_of_int r /. (32.0 *. float_of_int issues);
      }
  in
  let head_agg g n =
    let pa = parent g n in
    let _, issues = exact g n in
    { pa with Profile.execs = float_of_int (issues + g.total_warps) }
  in
  (* i = lo + global_id; stride = ntid * nctaid *)
  let gid = fresh_gpr ctx in
  let tid = fresh_gpr ctx and ntid = fresh_gpr ctx in
  let ctaid = fresh_gpr ctx and nctaid = fresh_gpr ctx in
  emit1 ctx Opcode.MOV tid [ Operand.Special Operand.Tid_x ];
  emit1 ctx Opcode.MOV ntid [ Operand.Special Operand.Ntid_x ];
  emit1 ctx Opcode.MOV ctaid [ Operand.Special Operand.Ctaid_x ];
  emit1 ctx Opcode.MOV nctaid [ Operand.Special Operand.Nctaid_x ];
  emit1 ctx Opcode.IMAD gid [ Operand.Reg ctaid; Operand.Reg ntid; Operand.Reg tid ];
  let stride = fresh_gpr ctx in
  emit1 ctx Opcode.IMUL stride [ Operand.Reg ntid; Operand.Reg nctaid ];
  let lo_op = gen_expr ctx l.Stmt.lo in
  let hi_op = gen_expr ctx l.Stmt.hi in
  let hi_r = as_reg ctx hi_op in
  emit1 ctx Opcode.IADD rv [ lo_op; Operand.Reg gid ];
  let head_l = new_label ctx and body_l = new_label ctx in
  let exit_l = new_label ctx in
  end_block ctx (Basic_block.Jump head_l);
  start_block ctx head_l
    ~weight:(w_add per_thread (w_fixed Weight.one))
    ~active:1.0 ~agg:head_agg;
  let p = fresh_pred ctx in
  emit1 ctx Opcode.ISETP ~cmp:Instruction.GE p
    [ Operand.Reg rv; Operand.Reg hi_r ];
  end_block ctx
    (Basic_block.Cond_branch
       {
         pred = { Instruction.negated = false; reg = p };
         if_true = exit_l;
         if_false = body_l;
       });
  start_block ctx body_l ~weight:per_thread ~active:1.0 ~agg:body_agg;
  lower_stmts ctx l.Stmt.body;
  emit1 ctx Opcode.IADD rv [ Operand.Reg rv; Operand.Reg stride ];
  end_block ctx (Basic_block.Jump head_l);
  start_block ctx exit_l ~weight:(w_fixed Weight.one) ~active:1.0 ~agg:parent

let code kernel gpu ~unroll ~staging ~fast_math =
  let entry_agg g _ = { Profile.execs = float_of_int g.total_warps; lanes = 1.0 } in
  let ctx =
    {
      kernel;
      unroll;
      fast_math;
      blocks_rev = [];
      label = "";
      instrs_rev = [];
      weight = w_fixed Weight.one;
      active = 1.0;
      next_label = 0;
      next_gpr = 0;
      next_pred = 0;
      var_regs = Hashtbl.create 16;
      var_types = Hashtbl.create 16;
      var_offsets = Hashtbl.create 4;
      tainted_vars = Hashtbl.create 8;
      defs = Hashtbl.create 16;
      array_bases = Hashtbl.create 8;
      n_reg = Register.gpr 0;
      parallel_var = None;
      work_items_fn = (fun _ _ -> 0);
      agg_fn = entry_agg;
      count_rules = [];
    }
  in
  let entry_l = new_label ctx in
  start_block ctx entry_l ~weight:(w_fixed Weight.one) ~active:1.0 ~agg:entry_agg;
  (* Kernel prologue: parameter loads.  Real SASS reads the constant
     bank; we model it as LDC from a zero param pointer. *)
  let pbase = fresh_gpr ctx in
  emit1 ctx Opcode.MOV pbase [ Operand.Imm 0 ];
  let n_reg = fresh_gpr ctx in
  emit1 ctx Opcode.LDC n_reg
    [ Operand.Addr { space = Operand.Param; base = pbase; offset = 0 } ];
  ctx.n_reg <- n_reg;
  List.iteri
    (fun i (decl : Kernel.array_decl) ->
      let r = fresh_gpr ctx in
      emit1 ctx Opcode.LDC r
        [
          Operand.Addr
            { space = Operand.Param; base = pbase; offset = 8 + (8 * i) };
        ];
      Hashtbl.replace ctx.array_bases decl.Kernel.array_name r)
    kernel.Kernel.arrays;
  (* Shared-memory staging (SC > 1): allocate the buffer and prime it.
     The per-access latency benefit is modelled by the simulator; the
     static side of the variant pays the occupancy pressure. *)
  if staging > 1 then begin
    let sbase = fresh_gpr ctx in
    emit1 ctx Opcode.MOV sbase [ Operand.Imm 0 ];
    for k = 0 to staging - 1 do
      emit ctx
        (Instruction.make Opcode.STS
           [
             Operand.Addr
               { space = Operand.Shared; base = sbase; offset = 4 * k };
             Operand.Imm 0;
           ])
    done;
    emit ctx (Instruction.make Opcode.BAR [ Operand.Imm 0 ])
  end;
  List.iter
    (fun stmt ->
      match stmt with
      | Stmt.For l when l.Stmt.kind = Stmt.Parallel -> lower_parallel_loop ctx l
      | other -> lower_stmt ctx other)
    kernel.Kernel.body;
  end_block ctx Basic_block.Exit;
  let blocks, weights = List.split (List.rev ctx.blocks_rev) in
  {
    program = Program.make ~name:kernel.Kernel.name ~target:gpu.Gat_arch.Gpu.cc blocks;
    weights;
    staging;
    work_items = ctx.work_items_fn;
    rules = List.rev ctx.count_rules;
  }

let smem_dynamic ~staging ~tc = if staging > 1 then staging * tc * 4 else 0

let instantiate c ~tc ~bc =
  let warps_per_block = (tc + 31) / 32 in
  let total_warps = bc * warps_per_block in
  let g = { tc; bc; warps_per_block; total_warps; issues = Hashtbl.create 8 } in
  let weigh b w = { b with Basic_block.weight = w (tc * bc) } in
  ( {
      c.program with
      Program.smem_dynamic = smem_dynamic ~staging:c.staging ~tc;
      blocks = List.map2 weigh c.program.Program.blocks c.weights;
    },
    {
      Profile.total_warps;
      warps_per_block;
      work_items = c.work_items g;
      block_counts = memo1 (fun n -> List.map (fun (label, f) -> (label, f g n)) c.rules);
    } )
