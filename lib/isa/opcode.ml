type t =
  | FADD
  | FMUL
  | FFMA
  | DADD
  | DMUL
  | DFMA
  | FSETP
  | ISETP
  | FMNMX
  | IMNMX
  | SHL
  | SHR
  | SHF
  | VABSDIFF
  | F2D
  | D2F
  | I2D
  | D2I
  | F2I
  | I2F
  | F2F
  | MUFU_RCP
  | MUFU_SQRT
  | MUFU_SIN
  | MUFU_COS
  | MUFU_LG2
  | MUFU_EX2
  | IADD
  | IMUL
  | IMAD
  | LOP_AND
  | LOP_OR
  | LOP_XOR
  | LDG
  | STG
  | LDS
  | STS
  | LDC
  | LDL
  | STL
  | TEX
  | PSETP
  | BRA
  | EXIT
  | BAR
  | SSY
  | MOV
  | SEL

let all =
  [
    FADD; FMUL; FFMA; DADD; DMUL; DFMA; FSETP; ISETP; FMNMX; IMNMX; SHL; SHR;
    SHF; VABSDIFF; F2D; D2F; I2D; D2I; F2I; I2F; F2F; MUFU_RCP; MUFU_SQRT;
    MUFU_SIN; MUFU_COS; MUFU_LG2; MUFU_EX2; IADD; IMUL; IMAD; LOP_AND; LOP_OR;
    LOP_XOR; LDG; STG; LDS; STS; LDC; LDL; STL; TEX; PSETP; BRA; EXIT; BAR;
    SSY; MOV; SEL;
  ]

let category op =
  let open Gat_arch.Throughput in
  match op with
  | FADD | FMUL | FFMA -> Fp32
  | DADD | DMUL | DFMA -> Fp64
  | FSETP | ISETP | FMNMX | IMNMX -> Comp_min_max
  | SHL | SHR | SHF | VABSDIFF -> Shift_shuffle
  | F2D | D2F | I2D | D2I -> Conv64
  | F2I | I2F | F2F -> Conv32
  | MUFU_RCP | MUFU_SQRT | MUFU_SIN | MUFU_COS | MUFU_LG2 | MUFU_EX2 ->
      Log_sin_cos
  | IADD | IMUL | IMAD | LOP_AND | LOP_OR | LOP_XOR -> Int_add32
  | LDG | STG | LDS | STS | LDC | LDL | STL | TEX -> Mem
  | PSETP | BRA | EXIT | BAR | SSY -> Pred_ctrl
  | MOV | SEL -> Move

let mnemonic = function
  | FADD -> "FADD"
  | FMUL -> "FMUL"
  | FFMA -> "FFMA"
  | DADD -> "DADD"
  | DMUL -> "DMUL"
  | DFMA -> "DFMA"
  | FSETP -> "FSETP"
  | ISETP -> "ISETP"
  | FMNMX -> "FMNMX"
  | IMNMX -> "IMNMX"
  | SHL -> "SHL"
  | SHR -> "SHR"
  | SHF -> "SHF"
  | VABSDIFF -> "VABSDIFF"
  | F2D -> "F2D"
  | D2F -> "D2F"
  | I2D -> "I2D"
  | D2I -> "D2I"
  | F2I -> "F2I"
  | I2F -> "I2F"
  | F2F -> "F2F"
  | MUFU_RCP -> "MUFU.RCP"
  | MUFU_SQRT -> "MUFU.SQRT"
  | MUFU_SIN -> "MUFU.SIN"
  | MUFU_COS -> "MUFU.COS"
  | MUFU_LG2 -> "MUFU.LG2"
  | MUFU_EX2 -> "MUFU.EX2"
  | IADD -> "IADD"
  | IMUL -> "IMUL"
  | IMAD -> "IMAD"
  | LOP_AND -> "LOP.AND"
  | LOP_OR -> "LOP.OR"
  | LOP_XOR -> "LOP.XOR"
  | LDG -> "LDG"
  | STG -> "STG"
  | LDS -> "LDS"
  | STS -> "STS"
  | LDC -> "LDC"
  | LDL -> "LDL"
  | STL -> "STL"
  | TEX -> "TEX"
  | PSETP -> "PSETP"
  | BRA -> "BRA"
  | EXIT -> "EXIT"
  | BAR -> "BAR.SYNC"
  | SSY -> "SSY"
  | MOV -> "MOV"
  | SEL -> "SEL"

let by_mnemonic = Hashtbl.create 64

let () = List.iter (fun op -> Hashtbl.replace by_mnemonic (mnemonic op) op) all

let of_mnemonic s = Hashtbl.find_opt by_mnemonic s

let is_memory op =
  match op with
  | LDG | STG | LDS | STS | LDC | LDL | STL | TEX -> true
  | _ -> false

let is_load op =
  match op with LDG | LDS | LDC | LDL | TEX -> true | _ -> false

let is_global_memory op = match op with LDG | STG | TEX -> true | _ -> false
let is_shared_memory op = match op with LDS | STS -> true | _ -> false
let is_barrier op = op = BAR

let latency gpu op =
  let open Gat_arch in
  (* Per-family ALU dependency latency: Fermi/Kepler pipelines are deeper
     than Maxwell/Pascal's fixed 6-cycle ALU. *)
  let alu =
    match gpu.Gpu.cc with
    | Compute_capability.Sm20 -> 18.0
    | Compute_capability.Sm35 -> 9.0
    | Compute_capability.Sm52 | Compute_capability.Sm60 -> 6.0
  in
  match op with
  | LDG | TEX -> gpu.Gpu.mem_latency_cycles
  | STG -> alu (* stores complete asynchronously; cost is issue-side *)
  | LDS | STS -> 24.0
  | LDC -> 30.0
  | LDL | STL -> gpu.Gpu.l2_latency_cycles
  | MUFU_RCP | MUFU_SQRT | MUFU_SIN | MUFU_COS | MUFU_LG2 | MUFU_EX2 ->
      alu +. 8.0
  | DADD | DMUL | DFMA -> alu +. 4.0
  | BAR -> 0.0
  | FADD | FMUL | FFMA | FSETP | ISETP | FMNMX | IMNMX | SHL | SHR | SHF
  | VABSDIFF | F2D | D2F | I2D | D2I | F2I | I2F | F2F | IADD | IMUL | IMAD
  | LOP_AND | LOP_OR | LOP_XOR | PSETP | BRA | EXIT | SSY | MOV | SEL ->
      alu
