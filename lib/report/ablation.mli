(** Ablation studies — extensions beyond the paper (DESIGN.md §7).

    Two design choices of the static analyzer are isolated:

    - {b Eq. 6 weights}: the paper weights class totals by per-class
      average CPIs.  How much does that buy over (a) finer per-category
      CPI weights and (b) no weights at all (raw instruction counts)?
      Measured as Fig. 5-style normalized MAE against the simulator.
    - {b Pruning rules}: the paper composes occupancy-based thread
      suggestions (static) with the intensity rule (RB).  What do the
      pieces achieve alone?  Measured as search-space reduction and
      solution quality on the Kepler device, read off the exhaustive
      sweep by {!Context.pruned} as Fig. 6 is. *)

type predictor_row = {
  kernel : string;
  family : string;
  mae_class_cpi : float;  (** Eq. 6 as in the paper. *)
  mae_category_cpi : float;  (** Per-category CPI weights. *)
  mae_unweighted : float;  (** Raw instruction counts. *)
}

val predictor_rows : unit -> predictor_row list

type pruning_row = {
  kernel : string;
  static_only : float * float;  (** reduction, quality. *)
  rules_only : float * float;
  combined : float * float;
}

val pruning_rows : ?gpu:Gat_arch.Gpu.t -> unit -> pruning_row list

val render : unit -> string
