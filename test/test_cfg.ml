(* Tests for gat_cfg: CFG construction, dominators, natural loops,
   divergence analysis and DOT export. *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

open Gat_isa

let block ?(body = []) label term = Basic_block.make label body term

let jump l = Basic_block.Jump l
let exit_t = Basic_block.Exit

let branch p a b =
  Basic_block.Cond_branch
    { pred = { Instruction.negated = false; reg = Register.pred p }; if_true = a; if_false = b }

let program blocks =
  Program.make ~name:"t" ~target:Gat_arch.Compute_capability.Sm35 blocks

(* A diamond:  entry -> (left | right) -> join -> exit *)
let diamond =
  program
    [
      block "entry" (branch 0 "left" "right");
      block "left" (jump "join");
      block "right" (jump "join");
      block "join" exit_t;
    ]

(* A loop:  entry -> head; head -> (body | out); body -> head *)
let looped =
  program
    [
      block "entry" (jump "head");
      block "head" (branch 0 "out" "body");
      block "body" (jump "head");
      block "out" exit_t;
    ]

(* ---- Cfg ---- *)

let test_cfg_structure () =
  let g = Gat_cfg.Cfg.of_program diamond in
  Alcotest.(check int) "blocks" 4 (Gat_cfg.Cfg.n_blocks g);
  Alcotest.(check int) "entry" 0 (Gat_cfg.Cfg.entry g);
  Alcotest.(check int) "edges" 4 (Gat_cfg.Cfg.edge_count g);
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] g.Gat_cfg.Cfg.succ.(0);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] g.Gat_cfg.Cfg.pred.(3)

let test_cfg_index_of () =
  let g = Gat_cfg.Cfg.of_program diamond in
  Alcotest.(check int) "join" 3 (Gat_cfg.Cfg.index_of g "join");
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Gat_cfg.Cfg.index_of g "nope");
       false
     with Not_found -> true)

let test_cfg_reachable () =
  let with_dead =
    program
      [
        block "entry" (jump "end");
        block "dead" (jump "end");
        block "end" exit_t;
      ]
  in
  let g = Gat_cfg.Cfg.of_program with_dead in
  Alcotest.(check (array bool)) "dead detected" [| true; false; true |]
    (Gat_cfg.Cfg.reachable g)

let test_cfg_rpo () =
  let g = Gat_cfg.Cfg.of_program diamond in
  let rpo = Gat_cfg.Cfg.reverse_postorder g in
  Alcotest.(check int) "entry first" 0 rpo.(0);
  Alcotest.(check int) "join last" 3 rpo.(Array.length rpo - 1)

(* ---- Dominators ---- *)

let test_dominators_diamond () =
  let g = Gat_cfg.Cfg.of_program diamond in
  let dom = Gat_cfg.Dominators.compute g in
  Alcotest.(check (option int)) "entry has no idom" None
    (Gat_cfg.Dominators.idom dom 0);
  Alcotest.(check (option int)) "left idom" (Some 0) (Gat_cfg.Dominators.idom dom 1);
  Alcotest.(check (option int)) "join idom is entry" (Some 0)
    (Gat_cfg.Dominators.idom dom 3);
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (Gat_cfg.Dominators.dominates dom 0) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "left does not dominate join" false
    (Gat_cfg.Dominators.dominates dom 1 3);
  Alcotest.(check bool) "reflexive" true (Gat_cfg.Dominators.dominates dom 2 2)

let test_dominators_loop () =
  let g = Gat_cfg.Cfg.of_program looped in
  let dom = Gat_cfg.Dominators.compute g in
  (* head dominates body and out. *)
  Alcotest.(check bool) "head dom body" true (Gat_cfg.Dominators.dominates dom 1 2);
  Alcotest.(check bool) "head dom out" true (Gat_cfg.Dominators.dominates dom 1 3);
  Alcotest.(check bool) "body not dom head" false
    (Gat_cfg.Dominators.dominates dom 2 1)

let test_dominator_chain () =
  let g = Gat_cfg.Cfg.of_program looped in
  let dom = Gat_cfg.Dominators.compute g in
  Alcotest.(check (list int)) "chain body->entry" [ 2; 1; 0 ]
    (Gat_cfg.Dominators.dominator_chain dom 2)

let prop_dominators_on_compiled_kernels =
  QCheck.Test.make ~count:8 ~name:"entry dominates every reachable block"
    (QCheck.make
       (QCheck.Gen.oneofl
          (List.concat_map
             (fun k -> List.map (fun u -> (k, u)) [ 1; 2; 3 ])
             Gat_workloads.Workloads.all)))
    (fun (kernel, unroll) ->
      let c =
        Gat_compiler.Driver.compile_exn kernel Gat_arch.Gpu.k20
          (Gat_compiler.Params.make ~unroll ())
      in
      let g = Gat_cfg.Cfg.of_program c.Gat_compiler.Driver.program in
      let dom = Gat_cfg.Dominators.compute g in
      let reachable = Gat_cfg.Cfg.reachable g in
      Array.for_all Fun.id
        (Array.mapi
           (fun i r -> (not r) || Gat_cfg.Dominators.dominates dom 0 i)
           reachable))

(* ---- Loops ---- *)

let test_back_edges () =
  let g = Gat_cfg.Cfg.of_program looped in
  Alcotest.(check (list (pair int int))) "one back edge" [ (2, 1) ]
    (Gat_cfg.Loops.back_edges g)

let test_natural_loop () =
  let g = Gat_cfg.Cfg.of_program looped in
  let loops = Gat_cfg.Loops.loops (Gat_cfg.Loops.compute g) in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check int) "header" 1 l.Gat_cfg.Loops.header;
  Alcotest.(check (list int)) "body" [ 1; 2 ] l.Gat_cfg.Loops.body;
  Alcotest.(check (list int)) "latches" [ 2 ] l.Gat_cfg.Loops.latches

let test_loop_depth () =
  let g = Gat_cfg.Cfg.of_program looped in
  let info = Gat_cfg.Loops.compute g in
  Alcotest.(check int) "entry depth" 0 (Gat_cfg.Loops.depth info 0);
  Alcotest.(check int) "body depth" 1 (Gat_cfg.Loops.depth info 2);
  Alcotest.(check bool) "in_loop" true (Gat_cfg.Loops.in_loop info ~header:1 2);
  Alcotest.(check bool) "out not in loop" false (Gat_cfg.Loops.in_loop info ~header:1 3)

let test_nested_loops_in_compiled_kernel () =
  (* matvec2d has a grid-stride loop; with an inner sequential loop the
     compiled atax has nesting depth 2 somewhere. *)
  let c =
    Gat_compiler.Driver.compile_exn Gat_workloads.Workloads.atax Gat_arch.Gpu.k20
      Gat_compiler.Params.default
  in
  let g = Gat_cfg.Cfg.of_program c.Gat_compiler.Driver.program in
  let info = Gat_cfg.Loops.compute g in
  let max_depth = ref 0 in
  for i = 0 to Gat_cfg.Cfg.n_blocks g - 1 do
    max_depth := max !max_depth (Gat_cfg.Loops.depth info i)
  done;
  Alcotest.(check bool) "nesting >= 2" true (!max_depth >= 2)

(* ---- Postdominators ---- *)

let test_postdominators_diamond () =
  let g = Gat_cfg.Cfg.of_program diamond in
  let pd = Gat_cfg.Postdominators.compute g in
  Alcotest.(check int) "exit node is join" 3 (Gat_cfg.Postdominators.exit_node pd);
  Alcotest.(check (option int)) "ipdom(entry) = join" (Some 3)
    (Gat_cfg.Postdominators.ipdom pd 0);
  Alcotest.(check (option int)) "ipdom(left) = join" (Some 3)
    (Gat_cfg.Postdominators.ipdom pd 1);
  Alcotest.(check (option int)) "exit has none" None
    (Gat_cfg.Postdominators.ipdom pd 3);
  Alcotest.(check bool) "join postdominates all" true
    (List.for_all (Gat_cfg.Postdominators.postdominates pd 3) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "left does not postdominate entry" false
    (Gat_cfg.Postdominators.postdominates pd 1 0)

let test_postdominators_loop () =
  let g = Gat_cfg.Cfg.of_program looped in
  let pd = Gat_cfg.Postdominators.compute g in
  (* The loop head's reconvergence point is the loop exit. *)
  Alcotest.(check (option int)) "ipdom(head) = out" (Some 3)
    (Gat_cfg.Postdominators.ipdom pd 1);
  Alcotest.(check (option int)) "ipdom(body) = head" (Some 1)
    (Gat_cfg.Postdominators.ipdom pd 2)

let test_postdominators_compiled_kernels () =
  (* Every divergent branch in compiled code has a reconvergence point
     (needed by the SIMT engine). *)
  List.iter
    (fun kernel ->
      let c =
        Gat_compiler.Driver.compile_exn kernel Gat_arch.Gpu.k20
          (Gat_compiler.Params.make ~unroll:3 ())
      in
      let g = Gat_cfg.Cfg.of_program c.Gat_compiler.Driver.program in
      let pd = Gat_cfg.Postdominators.compute g in
      let d = Gat_cfg.Divergence.compute g in
      List.iter
        (fun branch ->
          Alcotest.(check bool)
            (Printf.sprintf "%s block %d has ipdom" kernel.Gat_ir.Kernel.name branch)
            true
            (Gat_cfg.Postdominators.ipdom pd branch <> None))
        (Gat_cfg.Divergence.divergent_branches d))
    Gat_workloads.Workloads.all

(* Oracle: [p] post-dominates [b] iff [b] cannot reach the exit once
   [p] is removed from the graph.  Checked for every pair whose [b]
   reaches the exit at all (the others have no post-dominator). *)
let check_postdominators_by_removal name g =
  let pd = Gat_cfg.Postdominators.compute g in
  let exit = Gat_cfg.Postdominators.exit_node pd in
  let n = Gat_cfg.Cfg.n_blocks g in
  let reaches_exit ~removed b =
    let seen = Array.make n false in
    let rec go i =
      if i = removed || seen.(i) then false
      else (
        seen.(i) <- true;
        i = exit || List.exists go g.Gat_cfg.Cfg.succ.(i))
    in
    go b
  in
  for b = 0 to n - 1 do
    if reaches_exit ~removed:(-1) b then
      for p = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d postdominates %d" name p b)
          (not (reaches_exit ~removed:p b))
          (Gat_cfg.Postdominators.postdominates pd p b)
      done
  done

let test_postdominators_removal_oracle () =
  let points =
    List.filteri (fun i _ -> i mod 331 = 0)
      (Gat_tuner.Space.points Gat_tuner.Space.paper)
  in
  List.iter
    (fun kernel ->
      List.iter
        (fun gpu ->
          List.iter
            (fun params ->
              match Gat_compiler.Driver.compile kernel gpu params with
              | Error _ -> ()
              | Ok c ->
                  check_postdominators_by_removal
                    (Printf.sprintf "%s/%s %s" kernel.Gat_ir.Kernel.name
                       gpu.Gat_arch.Gpu.name
                       (Gat_compiler.Params.to_string params))
                    (Gat_cfg.Cfg.of_program c.Gat_compiler.Driver.program))
            points)
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all;
  List.iter
    (fun f ->
      let text =
        In_channel.with_open_text (Filename.concat "fixtures" f)
          In_channel.input_all
      in
      check_postdominators_by_removal f
        (Gat_cfg.Cfg.of_program (Gat_isa.Parser.program_exn text)))
    [ "racy_smem.sass"; "divergent_bar.sass" ]

(* ---- Divergence ---- *)

let mov dst src = Instruction.make ~dst Opcode.MOV [ src ]

let test_divergence_tid_branch () =
  (* setp on a tid-derived value -> divergent. *)
  let p =
    program
      [
        block
          ~body:
            [
              mov (Register.gpr 0) (Operand.Special Operand.Tid_x);
              Instruction.make ~dst:(Register.pred 0) Opcode.ISETP
                [ Operand.reg (Register.gpr 0); Operand.imm 7 ];
            ]
          "entry" (branch 0 "a" "b");
        block "a" (jump "end");
        block "b" (jump "end");
        block "end" exit_t;
      ]
  in
  let d = Gat_cfg.Divergence.compute (Gat_cfg.Cfg.of_program p) in
  Alcotest.(check (list int)) "entry divergent" [ 0 ]
    (Gat_cfg.Divergence.divergent_branches d);
  Alcotest.(check int) "branch count" 1 (Gat_cfg.Divergence.branch_count d);
  Alcotest.(check (float 1e-9)) "fraction" 1.0 (Gat_cfg.Divergence.divergent_fraction d)

let test_divergence_uniform_branch () =
  (* setp on ctaid (uniform within a warp) -> not divergent. *)
  let p =
    program
      [
        block
          ~body:
            [
              mov (Register.gpr 0) (Operand.Special Operand.Ctaid_x);
              Instruction.make ~dst:(Register.pred 0) Opcode.ISETP
                [ Operand.reg (Register.gpr 0); Operand.imm 7 ];
            ]
          "entry" (branch 0 "a" "b");
        block "a" (jump "end");
        block "b" (jump "end");
        block "end" exit_t;
      ]
  in
  let d = Gat_cfg.Divergence.compute (Gat_cfg.Cfg.of_program p) in
  Alcotest.(check (list int)) "no divergence" []
    (Gat_cfg.Divergence.divergent_branches d);
  Alcotest.(check (float 1e-9)) "fraction" 0.0 (Gat_cfg.Divergence.divergent_fraction d)

let test_divergence_taint_through_load () =
  (* A load from a tid-derived address is lane-varying data. *)
  let p =
    program
      [
        block
          ~body:
            [
              mov (Register.gpr 0) (Operand.Special Operand.Tid_x);
              Instruction.make ~dst:(Register.gpr 1) Opcode.LDG
                [ Operand.addr Operand.Global (Register.gpr 0) 0 ];
              Instruction.make ~dst:(Register.pred 0) Opcode.FSETP
                [ Operand.reg (Register.gpr 1); Operand.fimm 0.0 ];
            ]
          "entry" (branch 0 "a" "b");
        block "a" (jump "end");
        block "b" (jump "end");
        block "end" exit_t;
      ]
  in
  let d = Gat_cfg.Divergence.compute (Gat_cfg.Cfg.of_program p) in
  Alcotest.(check (list int)) "data-dependent divergence" [ 0 ]
    (Gat_cfg.Divergence.divergent_branches d)

let test_divergence_on_workloads () =
  (* Every compiled kernel's grid-stride guard is thread-dependent. *)
  List.iter
    (fun kernel ->
      let c =
        Gat_compiler.Driver.compile_exn kernel Gat_arch.Gpu.k20
          Gat_compiler.Params.default
      in
      let d =
        Gat_cfg.Divergence.compute
          (Gat_cfg.Cfg.of_program c.Gat_compiler.Driver.program)
      in
      Alcotest.(check bool)
        (kernel.Gat_ir.Kernel.name ^ " has a divergent branch")
        true
        (List.length (Gat_cfg.Divergence.divergent_branches d) >= 1))
    Gat_workloads.Workloads.all

(* ---- Dot ---- *)

let test_dot_render () =
  let g = Gat_cfg.Cfg.of_program diamond in
  let dot = Gat_cfg.Dot.render g in
  Alcotest.(check bool) "digraph" true (String.length dot > 0);
  List.iter
    (fun needle ->
      let found =
        let len = String.length needle in
        let rec scan i =
          i + len <= String.length dot
          && (String.sub dot i len = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true found)
    [ "digraph"; "entry"; "join"; "->" ]

let () =
  Alcotest.run "gat_cfg"
    [
      ( "cfg",
        [
          Alcotest.test_case "structure" `Quick test_cfg_structure;
          Alcotest.test_case "index_of" `Quick test_cfg_index_of;
          Alcotest.test_case "reachable" `Quick test_cfg_reachable;
          Alcotest.test_case "rpo" `Quick test_cfg_rpo;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "loop" `Quick test_dominators_loop;
          Alcotest.test_case "chain" `Quick test_dominator_chain;
          QCheck_alcotest.to_alcotest prop_dominators_on_compiled_kernels;
        ] );
      ( "loops",
        [
          Alcotest.test_case "back edges" `Quick test_back_edges;
          Alcotest.test_case "natural loop" `Quick test_natural_loop;
          Alcotest.test_case "depth" `Quick test_loop_depth;
          Alcotest.test_case "nested in atax" `Quick test_nested_loops_in_compiled_kernel;
        ] );
      ( "postdominators",
        [
          Alcotest.test_case "diamond" `Quick test_postdominators_diamond;
          Alcotest.test_case "loop" `Quick test_postdominators_loop;
          Alcotest.test_case "compiled kernels" `Quick test_postdominators_compiled_kernels;
          Alcotest.test_case "removal oracle" `Quick test_postdominators_removal_oracle;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "tid branch" `Quick test_divergence_tid_branch;
          Alcotest.test_case "uniform branch" `Quick test_divergence_uniform_branch;
          Alcotest.test_case "taint through load" `Quick test_divergence_taint_through_load;
          Alcotest.test_case "workloads" `Quick test_divergence_on_workloads;
        ] );
      ("dot", [ Alcotest.test_case "render" `Quick test_dot_render ]);
    ]
