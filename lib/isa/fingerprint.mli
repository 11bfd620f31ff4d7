(** Weight-free structural digests of lowered code — THE shared hash
    every backend cache keys on.

    A digest covers the instruction text (exact, including [%h] float
    immediates), the branch structure (labels and terminators) and the
    program's register/shared-memory footprint, but never the
    per-block execution weights or active fractions — the only lowered
    artifacts that depend on the launch geometry.  Variants differing
    only in TC/BC (or the problem size N) therefore hash identically
    and share every backend result keyed on these digests, while any
    one-instruction edit moves the digest and invalidates exactly the
    entries whose inputs changed.

    {!same_code} is the matching exact equality: the in-memory codegen
    tier finds stored code with it, which is cheaper than hashing, and
    reuses the stored digest. *)

val body : Instruction.t list -> string
(** Hex MD5 of one block body's instruction stream (no label, no
    terminator): the input of per-block scheduling. *)

val block : Basic_block.t -> string
(** Hex MD5 of one block: label, body, terminator. *)

val program : Program.t -> string
(** Hex MD5 of a whole program: name, target, register/smem footprint
    and every block in layout order. *)

val same_code : Program.t -> Program.t -> bool
(** Exact equality of everything {!program} digests — name, target,
    footprint, labels, bodies and terminators, float immediates by bit
    pattern — ignoring weights and active fractions.  [same_code a b]
    implies [program a = program b], so a cache that finds a stored
    program by this test can reuse its digest without hashing. *)
