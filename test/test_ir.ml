(* Tests for gat_ir: expressions, statements, kernels, the type checker,
   the reference interpreter and the Orio tuning-spec parser. *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

open Gat_ir
open Gat_ir.Expr

(* ---- Expr ---- *)

let test_free_vars () =
  let e = var "a" + (var "b" * var "a") in
  Alcotest.(check (list string)) "first occurrence order" [ "a"; "b" ] (free_vars e)

let test_free_vars_in_read () =
  let e = read "A" [ var "i"; var "j" ] in
  Alcotest.(check (list string)) "index vars" [ "i"; "j" ] (free_vars e)

let test_arrays_read () =
  let e = read "A" [ var "i" ] + read "B" [ read "A" [ var "j" ] ] in
  Alcotest.(check (list string)) "arrays" [ "A"; "B" ] (arrays_read e)

let test_map_vars () =
  let e = var "i" + int 1 in
  let substituted = map_vars (fun v -> if v = "i" then int 5 else var v) e in
  Alcotest.(check string) "substituted" "(5 + 1)" (to_string substituted)

let test_expr_to_string () =
  Alcotest.(check string) "select" "((i < N) ? 1 : 0)"
    (to_string (Select (Cmp (Lt, var "i", Size), int 1, int 0)));
  Alcotest.(check string) "minmax" "min(a, b)"
    (to_string (Bin (Min, var "a", var "b")));
  Alcotest.(check string) "unop" "sqrt(x)" (to_string (Un (Sqrt, var "x")));
  (* Floats print as %g wherever %g reads back exactly, and with more
     digits only where it does not. *)
  List.iter
    (fun (text, f) -> Alcotest.(check string) text text (to_string (float f)))
    [ ("0", 0.0); ("0.5", 0.5); ("1e-09", 1e-9); ("1.0000001e-09", 1.0000001e-9) ]

let prop_float_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"float to_string round-trips"
    QCheck.float (fun f ->
      Float.equal (float_of_string (to_string (Float f))) f)

(* ---- Stmt ---- *)

let loop_body =
  [
    Stmt.Assign ("acc", var "acc" + read "A" [ var "i"; var "j" ]);
    Stmt.Store ("y", [ var "i" ], var "acc");
  ]

let test_stmt_arrays () =
  let s = [ Stmt.for_ "j" (int 0) Size loop_body ] in
  Alcotest.(check (list string)) "written" [ "y" ] (Stmt.arrays_written s);
  Alcotest.(check (list string)) "read" [ "A" ] (Stmt.arrays_read s)

let test_stmt_map_exprs () =
  let s = Stmt.Assign ("x", var "i") in
  let mapped =
    Stmt.map_exprs (map_vars (fun v -> if v = "i" then int 9 else var v)) s
  in
  match mapped with
  | Stmt.Assign (_, Int 9) -> ()
  | _ -> Alcotest.fail "substitution failed"

let test_count_parallel () =
  let s =
    [
      Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size
        [ Stmt.for_ "j" (int 0) Size [] ];
    ]
  in
  Alcotest.(check int) "one parallel" 1 (Stmt.count_parallel_loops s)

let test_for_step_validation () =
  Alcotest.check_raises "step 0" (Invalid_argument "Stmt.for_: step must be >= 1")
    (fun () -> ignore (Stmt.for_ ~step:0 "i" (int 0) Size []))

(* ---- Kernel validation ---- *)

let make_kernel body =
  Kernel.make ~name:"t" ~description:"test"
    ~arrays:[ Kernel.array_decl "A" 2; Kernel.array_decl "y" 1 ]
    body

let test_kernel_requires_parallel () =
  Alcotest.check_raises "no parallel loop"
    (Invalid_argument "Kernel t: kernel needs exactly one parallel loop")
    (fun () -> ignore (make_kernel [ Stmt.for_ "i" (int 0) Size [] ]))

let test_kernel_rejects_two_parallel () =
  Alcotest.check_raises "two parallel loops"
    (Invalid_argument "Kernel t: kernel needs exactly one parallel loop")
    (fun () ->
      ignore
        (make_kernel
           [
             Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size [];
             Stmt.for_ ~kind:Stmt.Parallel "j" (int 0) Size [];
           ]))

let test_kernel_rejects_undeclared_array () =
  Alcotest.check_raises "undeclared"
    (Invalid_argument "Kernel t: read array B is not declared") (fun () ->
      ignore
        (make_kernel
           [
             Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size
               [ Stmt.Store ("y", [ var "i" ], read "B" [ var "i" ]) ];
           ]))

let test_kernel_rejects_nested_parallel () =
  Alcotest.check_raises "nested parallel"
    (Invalid_argument "Kernel t: the parallel loop must be top-level")
    (fun () ->
      ignore
        (make_kernel
           [
             Stmt.for_ "i" (int 0) Size
               [ Stmt.for_ ~kind:Stmt.Parallel "j" (int 0) Size [] ];
           ]))

let test_kernel_parallel_loop_accessor () =
  let k =
    make_kernel [ Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size [] ]
  in
  Alcotest.(check string) "var" "i" (Kernel.parallel_loop k).Stmt.var

let test_array_decl_rank () =
  Alcotest.check_raises "rank 4"
    (Invalid_argument "Kernel.array_decl: dims must be 1, 2 or 3") (fun () ->
      ignore (Kernel.array_decl "A" 4))

(* ---- Typecheck ---- *)

let typed_kernel body =
  Kernel.make ~name:"tc" ~description:"typecheck"
    ~arrays:[ Kernel.array_decl "A" 2; Kernel.array_decl "y" 1 ]
    [ Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size body ]

let check_type_error body =
  match Typecheck.kernel (typed_kernel body) with
  | Ok () -> Alcotest.fail "expected a type error"
  | Error _ -> ()

let test_typecheck_workloads () =
  List.iter
    (fun k ->
      match Typecheck.kernel k with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e)
    Gat_workloads.Workloads.all

let test_typecheck_rank_mismatch () =
  check_type_error [ Stmt.Store ("A", [ var "i" ], float 0.0) ]

let test_typecheck_float_index () =
  check_type_error [ Stmt.Store ("y", [ Float 1.0 ], float 0.0) ]

let test_typecheck_sqrt_on_int () =
  check_type_error [ Stmt.Assign ("x", Un (Sqrt, var "i")) ]

let test_typecheck_mixed_bin () =
  check_type_error [ Stmt.Assign ("x", var "i" + float 1.0) ]

let test_typecheck_select_mismatch () =
  check_type_error
    [ Stmt.Assign ("x", Select (Cmp (Lt, var "i", Size), int 1, float 1.0)) ]

let test_typecheck_reassign_type_change () =
  check_type_error
    [ Stmt.Assign ("x", int 1); Stmt.Assign ("x", float 1.0) ]

let test_typecheck_undefined_scalar () =
  check_type_error [ Stmt.Assign ("x", var "nope") ]

let test_typecheck_store_type_mismatch () =
  check_type_error [ Stmt.Store ("y", [ var "i" ], int 3) ]

let test_typecheck_loop_bound_type () =
  check_type_error [ Stmt.for_ "j" (float 0.0) Size [] ]

(* ---- Eval ---- *)

let test_eval_matvec_reference () =
  (* Hand-computed y = A x for a tiny instance. *)
  let kernel =
    Kernel.make ~name:"mv" ~description:"matvec"
      ~arrays:[ Kernel.array_decl "A" 2; Kernel.array_decl "x" 1; Kernel.array_decl "y" 1 ]
      [
        Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size
          [
            Stmt.Assign ("acc", float 0.0);
            Stmt.for_ "j" (int 0) Size
              [
                Stmt.Assign
                  ("acc", var "acc" + (read "A" [ var "i"; var "j" ] * read "x" [ var "j" ]));
              ];
            Stmt.Store ("y", [ var "i" ], var "acc");
          ];
      ]
  in
  let n = 3 in
  let arrays = Eval.init_arrays kernel ~n ~seed:5 in
  let a = Hashtbl.find arrays "A" and x = Hashtbl.find arrays "x" in
  (* Integer operators are shadowed by Expr's smart constructors here,
     so index arithmetic is spelled out with Stdlib. *)
  let idx i j = Stdlib.( + ) (Stdlib.( * ) i n) j in
  let expected =
    Array.init n (fun i ->
        let acc = ref 0.0 in
        for j = 0 to Stdlib.( - ) n 1 do
          acc := !acc +. (a.(idx i j) *. x.(j))
        done;
        !acc)
  in
  Eval.run kernel ~n arrays;
  let y = Hashtbl.find arrays "y" in
  Array.iteri
    (fun i e -> Alcotest.(check (float 1e-9)) (Printf.sprintf "y[%d]" i) e y.(i))
    expected

let test_eval_deterministic () =
  let k = Gat_workloads.Workloads.matvec2d in
  let a = Eval.run_fresh k ~n:8 ~seed:1 in
  let b = Eval.run_fresh k ~n:8 ~seed:1 in
  Alcotest.(check (float 0.0)) "identical" 0.0 (Eval.max_abs_diff a b)

let test_eval_seed_changes_data () =
  let k = Gat_workloads.Workloads.matvec2d in
  let a = Eval.run_fresh k ~n:8 ~seed:1 in
  let b = Eval.run_fresh k ~n:8 ~seed:2 in
  Alcotest.(check bool) "different" true (Eval.max_abs_diff a b > 0.0)

let test_eval_bounds_check () =
  let kernel =
    Kernel.make ~name:"oob" ~description:"out of bounds"
      ~arrays:[ Kernel.array_decl "y" 1 ]
      [
        Stmt.for_ ~kind:Stmt.Parallel "i" (int 0) Size
          [ Stmt.Store ("y", [ var "i" + Size ], float 0.0) ];
      ]
  in
  let arrays = Eval.init_arrays kernel ~n:4 ~seed:0 in
  Alcotest.(check bool) "raises" true
    (try
       Eval.run kernel ~n:4 arrays;
       false
     with Invalid_argument _ -> true)

let test_eval_loop_step () =
  (* A step-2 loop touches only even indices. *)
  let kernel =
    Kernel.make ~name:"step" ~description:"strided stores"
      ~arrays:[ Kernel.array_decl "y" 1 ]
      [
        Stmt.for_ ~kind:Stmt.Parallel "p" (int 0) (int 1)
          [ Stmt.for_ ~step:2 "i" (int 0) Size [ Stmt.Store ("y", [ var "i" ], float 1.0) ] ];
      ]
  in
  let arrays = Eval.init_arrays kernel ~n:6 ~seed:0 in
  let y = Hashtbl.find arrays "y" in
  let before = Array.copy y in
  Eval.run kernel ~n:6 arrays;
  for i = 0 to 5 do
    if i mod 2 = 0 then Alcotest.(check (float 0.0)) "stored" 1.0 y.(i)
    else Alcotest.(check (float 0.0)) "untouched" before.(i) y.(i)
  done

let test_eval_copy_isolated () =
  let k = Gat_workloads.Workloads.matvec2d in
  let a = Eval.init_arrays k ~n:4 ~seed:1 in
  let b = Eval.copy_arrays a in
  (Hashtbl.find a "x").(0) <- 99.0;
  Alcotest.(check bool) "copy unaffected" true ((Hashtbl.find b "x").(0) <> 99.0)

(* ---- Tuning_spec ---- *)

let test_spec_fig3_cardinality () =
  (* 32 * 8 * 5 * 2 * 5 * 2 = 25,600 in the raw Fig. 3 space. *)
  Alcotest.(check int) "cardinality" 25600
    (Tuning_spec.cardinality Tuning_spec.table_iii)

let test_spec_range_semantics () =
  let spec = Tuning_spec.parse_exn "param X[] = range(1,6);" in
  Alcotest.(check (list int)) "range(1,6)" [ 1; 2; 3; 4; 5 ]
    (Tuning_spec.int_values spec "X")

let test_spec_range_step () =
  let spec = Tuning_spec.parse_exn "param X[] = range(24,193,24);" in
  Alcotest.(check (list int)) "range with step"
    [ 24; 48; 72; 96; 120; 144; 168; 192 ]
    (Tuning_spec.int_values spec "X")

let test_spec_list_values () =
  let spec = Tuning_spec.parse_exn "param PL[] = [16,48];" in
  Alcotest.(check (list int)) "list" [ 16; 48 ] (Tuning_spec.int_values spec "PL")

let test_spec_strings () =
  let spec = Tuning_spec.parse_exn "param CFLAGS[] = ['', '-use_fast_math'];" in
  Alcotest.(check (list string)) "strings" [ ""; "-use_fast_math" ]
    (Tuning_spec.string_values spec "CFLAGS")

let test_spec_missing_param () =
  Alcotest.(check (list int)) "absent" []
    (Tuning_spec.int_values Tuning_spec.table_iii "NOPE")

let test_spec_parse_errors () =
  (match Tuning_spec.parse "no params here" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  match Tuning_spec.parse "param X[] = range(bad);" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_spec_roundtrip () =
  let spec = Tuning_spec.table_iii in
  let reparsed = Tuning_spec.parse_exn (Tuning_spec.to_string spec) in
  Alcotest.(check int) "same cardinality" (Tuning_spec.cardinality spec)
    (Tuning_spec.cardinality reparsed);
  List.iter2
    (fun (a : Tuning_spec.param) (b : Tuning_spec.param) ->
      Alcotest.(check string) "name" a.Tuning_spec.pname b.Tuning_spec.pname;
      Alcotest.(check bool) "values" true (a.Tuning_spec.values = b.Tuning_spec.values))
    spec.Tuning_spec.params reparsed.Tuning_spec.params

let test_spec_int_values_on_strings () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tuning_spec.int_values Tuning_spec.table_iii "CFLAGS");
       false
     with Invalid_argument _ -> true)

(* ---- Source frontend ---- *)

let atax_source =
  {|
// y = A^T (A x)
/*@ begin PerfTuning (
  def performance_params {
    param TC[] = range(32,129,32);
    param CFLAGS[] = ['', '-use_fast_math'];
  }
) @*/
kernel atax(A[N][N], x[N], y[N]) {
  parallel for (i = 0; i < N; i++) {
    tmp = 0.0;
    for (j = 0; j < N; j++) {
      tmp = tmp + A[i][j] * x[j];
    }
    for (j = 0; j < N; j++) {
      y[j] = y[j] + A[i][j] * tmp;
    }
  }
}
|}

let test_source_parses_atax () =
  let parsed = Source.parse_exn atax_source in
  Alcotest.(check string) "name" "atax" parsed.Source.kernel.Kernel.name;
  Alcotest.(check int) "arrays" 3
    (List.length parsed.Source.kernel.Kernel.arrays);
  (match parsed.Source.spec with
  | Some spec ->
      Alcotest.(check (list int)) "TC axis" [ 32; 64; 96; 128 ]
        (Tuning_spec.int_values spec "TC")
  | None -> Alcotest.fail "expected a tuning spec");
  (* Parsed kernel is semantically the hand-built one. *)
  let reference = Eval.run_fresh Gat_workloads.Workloads.atax ~n:7 ~seed:9 in
  let from_source = Eval.run_fresh parsed.Source.kernel ~n:7 ~seed:9 in
  Alcotest.(check (float 1e-12)) "same semantics" 0.0
    (Eval.max_abs_diff reference from_source)

let test_source_features () =
  let parsed =
    Source.parse_exn
      {|kernel f(u[N], v[N]) {
          parallel for (p = 0; p < N; p += 2) {
            w = p > 0 && p < N - 1 ? sqrt(fabs(u[p])) : 0.0;
            if (p == 0) { v[p] = w; } else { v[p] = w + min(u[p], 1.0); }
            sync();
          }
        }|}
  in
  Alcotest.(check string) "name" "f" parsed.Source.kernel.Kernel.name;
  Alcotest.(check bool) "no spec" true (parsed.Source.spec = None);
  match Kernel.parallel_loop parsed.Source.kernel with
  | { Stmt.step = 2; _ } -> ()
  | _ -> Alcotest.fail "expected step 2"

let check_source_error snippet =
  match Source.parse snippet with
  | Ok _ -> Alcotest.failf "expected a parse error for %s" snippet
  | Error _ -> ()

let test_source_errors () =
  check_source_error "not a kernel";
  check_source_error "kernel f(x[N]) { }" (* no parallel loop *);
  check_source_error
    "kernel f(x[N]) { parallel for (i = 0; j < N; i++) { x[i] = 0.0; } }";
  check_source_error
    "kernel f(x[N]) { parallel for (i = 0; i < N; i--) { x[i] = 0.0; } }";
  check_source_error
    "kernel f(x[M]) { parallel for (i = 0; i < N; i++) { x[i] = 0.0; } }";
  check_source_error
    "kernel f(x[N]) { parallel for (i = 0; i < N; i++) { x[i] = y[i]; } }";
  check_source_error
    "kernel f(x[N]) { parallel for (i = 0; i < N; i++) { x[i] = sqrt(i); } }"

let test_source_compiles_end_to_end () =
  let parsed = Source.parse_exn atax_source in
  let c =
    Gat_compiler.Driver.compile_exn parsed.Source.kernel Gat_arch.Gpu.k20
      Gat_compiler.Params.default
  in
  Alcotest.(check bool) "compiles" true
    (Gat_isa.Program.instruction_count c.Gat_compiler.Driver.program > 10)

let () =
  Alcotest.run "gat_ir"
    [
      ( "expr",
        [
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "free vars in read" `Quick test_free_vars_in_read;
          Alcotest.test_case "arrays read" `Quick test_arrays_read;
          Alcotest.test_case "map vars" `Quick test_map_vars;
          Alcotest.test_case "to_string" `Quick test_expr_to_string;
          QCheck_alcotest.to_alcotest prop_float_roundtrip;
        ] );
      ( "stmt",
        [
          Alcotest.test_case "arrays" `Quick test_stmt_arrays;
          Alcotest.test_case "map exprs" `Quick test_stmt_map_exprs;
          Alcotest.test_case "count parallel" `Quick test_count_parallel;
          Alcotest.test_case "step validation" `Quick test_for_step_validation;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "requires parallel" `Quick test_kernel_requires_parallel;
          Alcotest.test_case "rejects two parallel" `Quick test_kernel_rejects_two_parallel;
          Alcotest.test_case "rejects undeclared" `Quick test_kernel_rejects_undeclared_array;
          Alcotest.test_case "rejects nested parallel" `Quick test_kernel_rejects_nested_parallel;
          Alcotest.test_case "parallel accessor" `Quick test_kernel_parallel_loop_accessor;
          Alcotest.test_case "array rank" `Quick test_array_decl_rank;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "workloads ok" `Quick test_typecheck_workloads;
          Alcotest.test_case "rank mismatch" `Quick test_typecheck_rank_mismatch;
          Alcotest.test_case "float index" `Quick test_typecheck_float_index;
          Alcotest.test_case "sqrt on int" `Quick test_typecheck_sqrt_on_int;
          Alcotest.test_case "mixed bin" `Quick test_typecheck_mixed_bin;
          Alcotest.test_case "select mismatch" `Quick test_typecheck_select_mismatch;
          Alcotest.test_case "reassign type" `Quick test_typecheck_reassign_type_change;
          Alcotest.test_case "undefined scalar" `Quick test_typecheck_undefined_scalar;
          Alcotest.test_case "store type" `Quick test_typecheck_store_type_mismatch;
          Alcotest.test_case "loop bound type" `Quick test_typecheck_loop_bound_type;
        ] );
      ( "eval",
        [
          Alcotest.test_case "matvec reference" `Quick test_eval_matvec_reference;
          Alcotest.test_case "deterministic" `Quick test_eval_deterministic;
          Alcotest.test_case "seed changes data" `Quick test_eval_seed_changes_data;
          Alcotest.test_case "bounds check" `Quick test_eval_bounds_check;
          Alcotest.test_case "loop step" `Quick test_eval_loop_step;
          Alcotest.test_case "copy isolated" `Quick test_eval_copy_isolated;
        ] );
      ( "source",
        [
          Alcotest.test_case "parses atax" `Quick test_source_parses_atax;
          Alcotest.test_case "features" `Quick test_source_features;
          Alcotest.test_case "errors" `Quick test_source_errors;
          Alcotest.test_case "compiles" `Quick test_source_compiles_end_to_end;
        ] );
      ( "tuning_spec",
        [
          Alcotest.test_case "fig3 cardinality" `Quick test_spec_fig3_cardinality;
          Alcotest.test_case "range semantics" `Quick test_spec_range_semantics;
          Alcotest.test_case "range step" `Quick test_spec_range_step;
          Alcotest.test_case "list values" `Quick test_spec_list_values;
          Alcotest.test_case "strings" `Quick test_spec_strings;
          Alcotest.test_case "missing param" `Quick test_spec_missing_param;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "int_values on strings" `Quick test_spec_int_values_on_strings;
        ] );
    ]
