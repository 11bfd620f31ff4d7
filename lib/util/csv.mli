(** Minimal RFC-4180 CSV rows: the format of the sweep journal
    ([Gat_tuner.Journal]), its only writer. *)

val escape : string -> string
(** Quote a field if it contains a comma, quote or newline. *)

val row_to_string : string list -> string
(** Join escaped fields with commas (no trailing newline). *)

val to_string : string list list -> string
(** Render rows to a single newline-terminated string. *)
