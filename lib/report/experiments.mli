(** Registry of all reproduced tables and figures. *)

type t = {
  id : string;  (** e.g. ["table5"], ["fig4"]. *)
  title : string;
  render : unit -> string;
}

val all : t list
(** In paper order: table1, table2, table3, fig3, table4, fig1, fig4,
    table5, fig5, table6, table7, fig6, fig7 — plus "ablation", an
    extension beyond the paper (DESIGN.md section 7). *)

val find : string -> t option
(** Case-insensitive id lookup. *)

val render_all : unit -> string
(** Every experiment in {!all}'s order, each under a header line and
    inside its own [experiment] trace span (argument [id]). *)
