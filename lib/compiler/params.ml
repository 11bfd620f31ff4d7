type t = {
  threads_per_block : int;
  block_count : int;
  unroll : int;
  l1_pref_kb : int;
  staging : int;
  fast_math : bool;
}

let default =
  {
    threads_per_block = 128;
    block_count = 96;
    unroll = 1;
    l1_pref_kb = 16;
    staging = 1;
    fast_math = false;
  }

let make ?(threads_per_block = default.threads_per_block)
    ?(block_count = default.block_count) ?(unroll = default.unroll)
    ?(l1_pref_kb = default.l1_pref_kb) ?(staging = default.staging)
    ?(fast_math = default.fast_math) () =
  { threads_per_block; block_count; unroll; l1_pref_kb; staging; fast_math }

let validate (gpu : Gat_arch.Gpu.t) t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.threads_per_block <= 0 then err "TC must be positive"
  else if t.threads_per_block > gpu.Gat_arch.Gpu.threads_per_block then
    err "TC=%d exceeds device limit %d" t.threads_per_block
      gpu.Gat_arch.Gpu.threads_per_block
  else if t.block_count <= 0 then err "BC must be positive"
  else if t.unroll < 1 || t.unroll > 8 then err "UIF=%d outside [1, 8]" t.unroll
  else if t.l1_pref_kb <> 16 && t.l1_pref_kb <> 48 then
    err "PL=%d is not one of {16, 48}" t.l1_pref_kb
  else if t.staging < 1 || t.staging > 8 then err "SC=%d outside [1, 8]" t.staging
  else Ok ()

let total_threads t = t.threads_per_block * t.block_count
let cflags t = if t.fast_math then "-use_fast_math" else ""

let to_string t =
  Printf.sprintf "TC=%d BC=%d UIF=%d PL=%d SC=%d CFLAGS=%s" t.threads_per_block
    t.block_count t.unroll t.l1_pref_kb t.staging (cflags t)

let compare a b =
  Stdlib.compare
    (a.threads_per_block, a.block_count, a.unroll, a.l1_pref_kb, a.staging, a.fast_math)
    (b.threads_per_block, b.block_count, b.unroll, b.l1_pref_kb, b.staging, b.fast_math)
