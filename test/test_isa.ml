(* Tests for gat_isa: registers, opcodes, operands, instructions,
   weights, blocks, programs, and the disassembler/parser round trip. *)

(* Compiles persist backend artifacts; keep test runs out of the
   user's real cache (CI may pre-set its own scratch directory). *)
let () =
  if Sys.getenv_opt "GAT_CACHE_DIR" = None then
    Unix.putenv "GAT_CACHE_DIR"
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "gat-test-%d" (Unix.getpid ())))

open Gat_isa

(* ---- Register ---- *)

let test_register_strings () =
  Alcotest.(check string) "gpr" "R7" (Register.to_string (Register.gpr 7));
  Alcotest.(check string) "pred" "P2" (Register.to_string (Register.pred 2))

let test_register_parse () =
  Alcotest.(check bool) "R12" true (Register.of_string "R12" = Some (Register.gpr 12));
  Alcotest.(check bool) "P0" true (Register.of_string "P0" = Some (Register.pred 0));
  Alcotest.(check bool) "junk" true (Register.of_string "X1" = None);
  Alcotest.(check bool) "negative" true (Register.of_string "R-1" = None);
  Alcotest.(check bool) "empty" true (Register.of_string "R" = None)

let test_register_compare () =
  Alcotest.(check bool) "gpr < pred" true
    (Register.compare (Register.gpr 100) (Register.pred 0) < 0);
  Alcotest.(check bool) "by id" true
    (Register.compare (Register.gpr 1) (Register.gpr 2) < 0);
  Alcotest.(check bool) "equal" true (Register.equal (Register.gpr 3) (Register.gpr 3))

let prop_register_roundtrip =
  QCheck.Test.make ~count:200 ~name:"register string roundtrip"
    QCheck.(pair bool (int_range 0 512))
    (fun (is_pred, id) ->
      let r = if is_pred then Register.pred id else Register.gpr id in
      Register.of_string (Register.to_string r) = Some r)

(* The digit printer behind register names ([Store.add_decimal]) must
   write exactly [string_of_int]'s text: every digest and artifact key
   is computed from it. *)
let prop_add_int_is_string_of_int =
  QCheck.Test.make ~count:1000 ~name:"add_int = string_of_int"
    QCheck.(oneof [ int; int_range (-100) 100; oneofl [ min_int; max_int; 0 ] ])
    (fun n ->
      let buf = Buffer.create 24 in
      Gat_util.Store.add_decimal buf n;
      String.equal (Buffer.contents buf) (string_of_int n))

(* ---- Opcode ---- *)

let test_opcode_mnemonic_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Opcode.mnemonic op) true
        (Opcode.of_mnemonic (Opcode.mnemonic op) = Some op))
    Opcode.all

let test_opcode_category_total () =
  (* Every opcode has a category; memory opcodes are the Mem class. *)
  List.iter
    (fun op ->
      let cat = Opcode.category op in
      if Opcode.is_memory op then
        Alcotest.(check bool) "memory category" true (cat = Gat_arch.Throughput.Mem))
    Opcode.all

let test_opcode_predicates () =
  Alcotest.(check bool) "LDG load" true (Opcode.is_load Opcode.LDG);
  Alcotest.(check bool) "STG not load" false (Opcode.is_load Opcode.STG);
  Alcotest.(check bool) "LDG global" true (Opcode.is_global_memory Opcode.LDG);
  Alcotest.(check bool) "LDS shared" true (Opcode.is_shared_memory Opcode.LDS);
  Alcotest.(check bool) "LDS not global" false (Opcode.is_global_memory Opcode.LDS);
  Alcotest.(check bool) "BAR barrier" true (Opcode.is_barrier Opcode.BAR);
  Alcotest.(check bool) "FADD not memory" false (Opcode.is_memory Opcode.FADD)

let test_opcode_latency () =
  let gpu = Gat_arch.Gpu.k20 in
  Alcotest.(check bool) "load slower than alu" true
    (Opcode.latency gpu Opcode.LDG > Opcode.latency gpu Opcode.FADD);
  Alcotest.(check bool) "shared slower than alu" true
    (Opcode.latency gpu Opcode.LDS > Opcode.latency gpu Opcode.FADD);
  List.iter
    (fun op ->
      Alcotest.(check bool) "non-negative" true (Opcode.latency gpu op >= 0.0))
    Opcode.all

(* ---- Operand ---- *)

let test_operand_strings () =
  Alcotest.(check string) "reg" "R1" (Operand.to_string (Operand.reg (Register.gpr 1)));
  Alcotest.(check string) "imm" "42" (Operand.to_string (Operand.imm 42));
  Alcotest.(check string) "special" "%tid.x"
    (Operand.to_string (Operand.Special Operand.Tid_x));
  Alcotest.(check string) "addr" "[global:R2+8]"
    (Operand.to_string (Operand.addr Operand.Global (Register.gpr 2) 8));
  Alcotest.(check string) "addr no offset" "[shared:R3]"
    (Operand.to_string (Operand.addr Operand.Shared (Register.gpr 3) 0))

let operand_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Operand.reg (Register.gpr i)) (int_range 0 63);
        map (fun i -> Operand.imm i) (int_range (-1000) 1000);
        map (fun f -> Operand.fimm f) (float_range (-10.0) 10.0);
        oneofl
          [
            Operand.Special Operand.Tid_x;
            Operand.Special Operand.Ntid_x;
            Operand.Special Operand.Ctaid_x;
            Operand.Special Operand.Nctaid_x;
            Operand.Special Operand.Laneid;
          ];
        map2
          (fun (space, base) offset -> Operand.addr space (Register.gpr base) offset)
          (pair
             (oneofl
                [ Operand.Global; Operand.Shared; Operand.Const; Operand.Local; Operand.Param ])
             (int_range 0 63))
          (int_range 0 4096);
      ])

let prop_operand_roundtrip =
  QCheck.Test.make ~count:500 ~name:"operand string roundtrip"
    (QCheck.make ~print:Operand.to_string operand_gen)
    (fun o -> Operand.of_string (Operand.to_string o) = Some o)

let test_operand_registers () =
  Alcotest.(check int) "reg has one" 1
    (List.length (Operand.registers (Operand.reg (Register.gpr 0))));
  Alcotest.(check int) "imm has none" 0
    (List.length (Operand.registers (Operand.imm 1)));
  Alcotest.(check int) "addr has base" 1
    (List.length (Operand.registers (Operand.addr Operand.Global (Register.gpr 1) 0)))

(* ---- Instruction ---- *)

let sample_instruction =
  Instruction.make ~dst:(Register.gpr 3) Opcode.IMAD
    [ Operand.reg (Register.gpr 1); Operand.imm 4; Operand.reg (Register.gpr 2) ]

let test_instruction_defs_uses () =
  Alcotest.(check int) "one def" 1 (List.length (Instruction.defs sample_instruction));
  Alcotest.(check int) "two reg uses" 2
    (List.length (Instruction.uses sample_instruction));
  Alcotest.(check int) "operand slots" 3
    (Instruction.register_operands sample_instruction)

let test_instruction_pred_uses () =
  let pred = { Instruction.negated = true; reg = Register.pred 1 } in
  let ins = Instruction.make ~pred ~dst:(Register.gpr 0) Opcode.MOV [ Operand.imm 1 ] in
  Alcotest.(check bool) "pred counted as use" true
    (List.exists (Register.equal (Register.pred 1)) (Instruction.uses ins))

let test_instruction_to_string () =
  Alcotest.(check string) "render" "IMAD R3, R1, 4, R2"
    (Instruction.to_string sample_instruction)

let test_instruction_roundtrip_cases () =
  let cases =
    [
      "IMAD R3, R1, 4, R2";
      "MOV R0, %tid.x";
      "LDG R5, [global:R2+16]";
      "STG [global:R7], R6";
      "@P0 FADD R1, R2, R3";
      "@!P1 MOV R0, 5";
      "BAR.SYNC 0";
      "MUFU.RCP R4, R5";
      "FSETP P2, R1, R2";
      "ISETP.GE P0, R5, R1";
      "FSETP.LT P1, R2, R3";
      "ISETP.NE P2, R0, 0";
    ]
  in
  List.iter
    (fun s ->
      match Instruction.of_string s with
      | Some ins -> Alcotest.(check string) s s (Instruction.to_string ins)
      | None -> Alcotest.failf "failed to parse %S" s)
    cases

(* Every opcode (with representative operands) x every cmp variant x
   every guard-predicate shape survives print -> parse unchanged. *)
let test_instruction_roundtrip_exhaustive () =
  let srcs_of op =
    match op with
    | Opcode.LDG | Opcode.TEX ->
        [ Operand.addr Operand.Global (Register.gpr 2) 16 ]
    | Opcode.LDS -> [ Operand.addr Operand.Shared (Register.gpr 2) 4 ]
    | Opcode.LDL -> [ Operand.addr Operand.Local (Register.gpr 2) 0 ]
    | Opcode.LDC -> [ Operand.addr Operand.Param (Register.gpr 2) 0 ]
    | Opcode.STG ->
        [
          Operand.addr Operand.Global (Register.gpr 2) 0;
          Operand.reg (Register.gpr 3);
        ]
    | Opcode.STS ->
        [
          Operand.addr Operand.Shared (Register.gpr 2) 8;
          Operand.reg (Register.gpr 3);
        ]
    | Opcode.STL ->
        [
          Operand.addr Operand.Local (Register.gpr 2) 0;
          Operand.reg (Register.gpr 3);
        ]
    | Opcode.BRA | Opcode.EXIT | Opcode.SSY -> []
    | Opcode.BAR -> [ Operand.imm 0 ]
    | Opcode.IMAD | Opcode.FFMA | Opcode.DFMA ->
        [
          Operand.reg (Register.gpr 1);
          Operand.imm 4;
          Operand.reg (Register.gpr 2);
        ]
    | Opcode.PSETP ->
        [ Operand.reg (Register.pred 3); Operand.reg (Register.pred 4) ]
    | Opcode.MOV -> [ Operand.Special Operand.Tid_x ]
    | _ -> [ Operand.reg (Register.gpr 1); Operand.reg (Register.gpr 2) ]
  in
  let dst_of op =
    match op with
    | Opcode.STG | Opcode.STS | Opcode.STL | Opcode.BRA | Opcode.EXIT
    | Opcode.BAR | Opcode.SSY ->
        None
    | Opcode.ISETP | Opcode.FSETP | Opcode.PSETP -> Some (Register.pred 0)
    | _ -> Some (Register.gpr 0)
  in
  let cmps_of op =
    match op with
    | Opcode.ISETP | Opcode.FSETP | Opcode.PSETP ->
        List.map Option.some
          [
            Instruction.EQ; Instruction.NE; Instruction.LT; Instruction.LE;
            Instruction.GT; Instruction.GE;
          ]
    | _ -> [ None ]
  in
  let preds =
    [
      None;
      Some { Instruction.negated = false; reg = Register.pred 1 };
      Some { Instruction.negated = true; reg = Register.pred 2 };
    ]
  in
  let count = ref 0 in
  List.iter
    (fun op ->
      List.iter
        (fun cmp ->
          List.iter
            (fun pred ->
              let ins =
                { Instruction.op; cmp; dst = dst_of op; srcs = srcs_of op; pred }
              in
              incr count;
              let s = Instruction.to_string ins in
              match Instruction.of_string s with
              | None -> Alcotest.failf "unparsable: %s" s
              | Some back ->
                  if back <> ins then
                    Alcotest.failf "roundtrip changed: %s -> %s" s
                      (Instruction.to_string back))
            preds)
        (cmps_of op))
    Opcode.all;
  Alcotest.(check bool) "covers every opcode three ways" true
    (!count >= 3 * List.length Opcode.all)

let test_instruction_parse_garbage () =
  Alcotest.(check bool) "garbage" true (Instruction.of_string "FROB R1" = None);
  Alcotest.(check bool) "empty" true (Instruction.of_string "" = None)

(* ---- Weight ---- *)

let test_weight_eval () =
  let w = Weight.add (Weight.const 2.0) (Weight.linear 3.0) in
  Alcotest.(check (float 1e-9)) "2+3n at 5" 17.0 (Weight.eval w ~n:5);
  let q = Weight.quadratic 1.0 in
  Alcotest.(check (float 1e-9)) "n^2" 25.0 (Weight.eval q ~n:5);
  let c = Weight.cubic 2.0 in
  Alcotest.(check (float 1e-9)) "2n^3" 250.0 (Weight.eval c ~n:5)

let test_weight_mul () =
  let w = Weight.mul (Weight.linear 1.0) (Weight.linear 2.0) in
  Alcotest.(check (float 1e-9)) "n*2n" 50.0 (Weight.eval w ~n:5);
  Alcotest.(check int) "degree 2" 2 (Weight.degree w)

let test_weight_mul_overflow () =
  Alcotest.check_raises "degree 4" (Invalid_argument "Weight.mul: degree exceeds 3")
    (fun () ->
      ignore (Weight.mul (Weight.quadratic 1.0) (Weight.quadratic 1.0)))

let test_weight_degree () =
  Alcotest.(check int) "const" 0 (Weight.degree (Weight.const 5.0));
  Alcotest.(check int) "zero" 0 (Weight.degree Weight.zero);
  Alcotest.(check int) "linear" 1 (Weight.degree (Weight.linear 1.0));
  Alcotest.(check int) "cubic" 3 (Weight.degree (Weight.cubic 1.0))

let test_weight_string_roundtrip () =
  let w = { Weight.c0 = 1.5; c1 = -0.25; c2 = 0.0; c3 = 3.0 } in
  Alcotest.(check bool) "roundtrip" true (Weight.of_string (Weight.to_string w) = Some w)

let prop_weight_linearity =
  QCheck.Test.make ~count:200 ~name:"weight add is pointwise"
    QCheck.(pair (pair (float_range 0. 10.) (float_range 0. 10.)) (int_range 1 64))
    (fun ((a, b), n) ->
      let wa = Weight.add (Weight.const a) (Weight.linear b) in
      let wb = Weight.add (Weight.linear b) (Weight.const a) in
      Float.abs (Weight.eval wa ~n -. Weight.eval wb ~n) < 1e-9)

(* ---- Basic blocks and programs ---- *)

let simple_block ?(label = "BB0") ?(term = Basic_block.Exit) instrs =
  Basic_block.make label instrs term

let test_block_successors () =
  let b =
    simple_block ~term:(Basic_block.Jump "BB1") []
  in
  Alcotest.(check (list string)) "jump" [ "BB1" ] (Basic_block.successors b);
  let cb =
    simple_block
      ~term:
        (Basic_block.Cond_branch
           {
             pred = { Instruction.negated = false; reg = Register.pred 0 };
             if_true = "A";
             if_false = "B";
           })
      []
  in
  Alcotest.(check (list string)) "cond" [ "A"; "B" ] (Basic_block.successors cb);
  Alcotest.(check (list string)) "exit" [] (Basic_block.successors (simple_block []))

let test_block_bad_active_frac () =
  Alcotest.check_raises "zero frac"
    (Invalid_argument "Basic_block.make: active_frac outside (0, 1]") (fun () ->
      ignore (Basic_block.make ~active_frac:0.0 "B" [] Basic_block.Exit))

let test_block_terminator_instruction () =
  let b = simple_block [] in
  Alcotest.(check bool) "exit op" true
    ((Basic_block.terminator_instruction b).Instruction.op = Opcode.EXIT);
  Alcotest.(check int) "count includes terminator" 1 (Basic_block.instruction_count b)

let test_program_validation () =
  let dup () =
    ignore
      (Program.make ~name:"k" ~target:Gat_arch.Compute_capability.Sm35
         [ simple_block []; simple_block [] ])
  in
  Alcotest.check_raises "duplicate label"
    (Invalid_argument
       "Program.make: duplicate label BB0 (block 1 redefines block 0)")
    dup;
  let undef () =
    ignore
      (Program.make ~name:"k" ~target:Gat_arch.Compute_capability.Sm35
         [ simple_block ~term:(Basic_block.Jump "NOPE") [] ])
  in
  Alcotest.check_raises "undefined target"
    (Invalid_argument
       "Program.make: undefined branch target NOPE (referenced by block 0, \
        BB0)")
    undef;
  Alcotest.check_raises "empty" (Invalid_argument "Program.make: no blocks")
    (fun () ->
      ignore (Program.make ~name:"k" ~target:Gat_arch.Compute_capability.Sm35 []))

let test_program_accessors () =
  let p =
    Program.make ~name:"k" ~target:Gat_arch.Compute_capability.Sm35
      ~regs_per_thread:10 ~smem_static:64 ~smem_dynamic:128
      [
        simple_block ~term:(Basic_block.Jump "BB1") [ sample_instruction ];
        simple_block ~label:"BB1" [];
      ]
  in
  Alcotest.(check int) "smem" 192 (Program.smem_per_block p);
  Alcotest.(check (list string)) "labels" [ "BB0"; "BB1" ] (Program.block_labels p);
  Alcotest.(check int) "instruction count" 3 (Program.instruction_count p);
  Alcotest.(check int) "max virtual" 3 (Program.max_virtual_register p);
  Alcotest.(check string) "find" "BB1" (Program.find_block p "BB1").Basic_block.label

let test_cmp_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Instruction.cmp_of_name (Instruction.cmp_name c) = Some c))
    [ Instruction.EQ; Instruction.NE; Instruction.LT; Instruction.LE;
      Instruction.GT; Instruction.GE ];
  Alcotest.(check bool) "unknown" true (Instruction.cmp_of_name "XX" = None)

(* ---- Ptx rendering ---- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let test_ptx_program () =
  let c =
    Gat_compiler.Driver.compile_exn Gat_workloads.Workloads.atax
      Gat_arch.Gpu.k20 Gat_compiler.Params.default
  in
  let ptx = Ptx.program c.Gat_compiler.Driver.ptx in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ptx needle))
    [
      ".visible .entry atax"; ".target sm_35"; "fma.rn.f32"; "ld.global.f32";
      "st.global.f32"; "setp.ge.s32"; "mad.lo.s32"; "bra.uni"; "ret;";
      "%tid.x";
    ]

let test_ptx_per_target () =
  (* Different -arch targets appear in the .target directive. *)
  List.iter
    (fun gpu ->
      let c =
        Gat_compiler.Driver.compile_exn Gat_workloads.Workloads.matvec2d gpu
          Gat_compiler.Params.default
      in
      let ptx = Ptx.program c.Gat_compiler.Driver.ptx in
      Alcotest.(check bool)
        ("target " ^ Gat_arch.Gpu.family gpu)
        true
        (contains ptx
           (Gat_arch.Compute_capability.to_string gpu.Gat_arch.Gpu.cc)))
    Gat_arch.Gpu.all

let test_ptx_fast_math_mnemonics () =
  let c =
    Gat_compiler.Driver.compile_exn Gat_workloads.Workloads.ex14fj
      Gat_arch.Gpu.k20
      (Gat_compiler.Params.make ~fast_math:true ())
  in
  let ptx = Ptx.program c.Gat_compiler.Driver.ptx in
  Alcotest.(check bool) "approx SFU" true (contains ptx "ex2.approx.f32")

(* ---- Disasm / Parser roundtrip ---- *)

let compiled_program kernel =
  (Gat_compiler.Driver.compile_exn kernel Gat_arch.Gpu.k20
     (Gat_compiler.Params.make ~unroll:2 ~fast_math:true ()))
    .Gat_compiler.Driver.program

let test_roundtrip_workloads () =
  List.iter
    (fun kernel ->
      let p = compiled_program kernel in
      let text = Disasm.program p in
      match Parser.program text with
      | Error e -> Alcotest.failf "parse error: %s" (Parser.error_to_string e)
      | Ok p' ->
          Alcotest.(check string)
            ("roundtrip " ^ kernel.Gat_ir.Kernel.name)
            text (Disasm.program p'))
    Gat_workloads.Workloads.all

let test_parser_errors () =
  let check_error text =
    match Parser.program text with
    | Ok _ -> Alcotest.failf "expected failure for %S" text
    | Error _ -> ()
  in
  check_error "";
  check_error ".kernel k\n.target sm_35\nBB0:\n  FROB R1\n  EXIT\n";
  check_error ".kernel k\nBB0:\n  EXIT\n" (* missing target *);
  check_error ".kernel k\n.target sm_99\nBB0:\n  EXIT\n";
  check_error ".kernel k\n.target sm_35\nBB0:\n  MOV R0, 1\n" (* no terminator *)

let test_parser_annotations () =
  let text =
    ".kernel k\n.target sm_35\n.regs 7\n.smem.static 32\n.smem.dynamic 64\n\n\
     BB0: ; weight=2,3,0,0 active=0.5\n  MOV R0, 1\n  EXIT\n"
  in
  match Parser.program text with
  | Error e -> Alcotest.failf "parse: %s" (Parser.error_to_string e)
  | Ok p ->
      Alcotest.(check int) "regs" 7 p.Program.regs_per_thread;
      Alcotest.(check int) "smem" 96 (Program.smem_per_block p);
      let b = Program.find_block p "BB0" in
      Alcotest.(check (float 1e-9)) "active" 0.5 b.Basic_block.active_frac;
      Alcotest.(check (float 1e-9)) "weight at 2" 8.0
        (Weight.eval b.Basic_block.weight ~n:2)

let () =
  Alcotest.run "gat_isa"
    [
      ( "register",
        [
          Alcotest.test_case "strings" `Quick test_register_strings;
          Alcotest.test_case "parse" `Quick test_register_parse;
          Alcotest.test_case "compare" `Quick test_register_compare;
          QCheck_alcotest.to_alcotest prop_register_roundtrip;
          QCheck_alcotest.to_alcotest prop_add_int_is_string_of_int;
        ] );
      ( "opcode",
        [
          Alcotest.test_case "mnemonic roundtrip" `Quick test_opcode_mnemonic_roundtrip;
          Alcotest.test_case "categories" `Quick test_opcode_category_total;
          Alcotest.test_case "predicates" `Quick test_opcode_predicates;
          Alcotest.test_case "latency" `Quick test_opcode_latency;
        ] );
      ( "operand",
        [
          Alcotest.test_case "strings" `Quick test_operand_strings;
          Alcotest.test_case "registers" `Quick test_operand_registers;
          QCheck_alcotest.to_alcotest prop_operand_roundtrip;
        ] );
      ( "instruction",
        [
          Alcotest.test_case "defs/uses" `Quick test_instruction_defs_uses;
          Alcotest.test_case "pred uses" `Quick test_instruction_pred_uses;
          Alcotest.test_case "to_string" `Quick test_instruction_to_string;
          Alcotest.test_case "roundtrip cases" `Quick test_instruction_roundtrip_cases;
          Alcotest.test_case "roundtrip exhaustive" `Quick
            test_instruction_roundtrip_exhaustive;
          Alcotest.test_case "garbage" `Quick test_instruction_parse_garbage;
          Alcotest.test_case "cmp names" `Quick test_cmp_names;
        ] );
      ( "ptx",
        [
          Alcotest.test_case "program" `Quick test_ptx_program;
          Alcotest.test_case "per target" `Quick test_ptx_per_target;
          Alcotest.test_case "fast math" `Quick test_ptx_fast_math_mnemonics;
        ] );
      ( "weight",
        [
          Alcotest.test_case "eval" `Quick test_weight_eval;
          Alcotest.test_case "mul" `Quick test_weight_mul;
          Alcotest.test_case "mul overflow" `Quick test_weight_mul_overflow;
          Alcotest.test_case "degree" `Quick test_weight_degree;
          Alcotest.test_case "string roundtrip" `Quick test_weight_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_weight_linearity;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "successors" `Quick test_block_successors;
          Alcotest.test_case "active frac" `Quick test_block_bad_active_frac;
          Alcotest.test_case "terminator" `Quick test_block_terminator_instruction;
        ] );
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "accessors" `Quick test_program_accessors;
        ] );
      ( "disasm/parser",
        [
          Alcotest.test_case "workload roundtrip" `Quick test_roundtrip_workloads;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "annotations" `Quick test_parser_annotations;
        ] );
    ]
