(** NVIDIA compute capabilities (virtual architectures) covered by the
    paper's testbed: Fermi sm_20, Kepler sm_35, Maxwell sm_52 and
    Pascal sm_60. *)

type t = Sm20 | Sm35 | Sm52 | Sm60

val all : t list
(** The four capabilities, in generation order. *)

val to_string : t -> string
(** E.g. ["sm_20"]; the form accepted by the [-arch] compiler flag. *)

val of_string : string -> t option
(** Inverse of {!to_string}; also accepts bare numbers like ["2.0"],
    ["3.5"], ["5.2"], ["6.0"]. *)

val family : t -> string
(** Marketing family name: Fermi, Kepler, Maxwell or Pascal. *)

val short : t -> string
(** One-letter tag used in paper tables: F, K, M or P. *)

val version : t -> float
(** Numeric capability, e.g. [3.5] for [Sm35]. *)

val compare : t -> t -> int
(** Generation order. *)
