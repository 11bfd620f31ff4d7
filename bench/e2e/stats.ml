(* Summary statistics and the regression rule of the end-to-end
   benchmark.  Quartiles use the "exclusive" interpolation of Python's
   [statistics.quantiles], so the spreads printed here are the ones
   that module computes from the same samples. *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> invalid_arg "Stats.median: empty sample"
  | xs -> Gat_util.Stats.median (Array.of_list xs)

(* The mean over operations of each operation's median, from samples
   labelled by operation.  A pass mixes operations of different cost,
   so its latencies fall in clusters with gaps between them; a pooled
   median that lands at a gap jumps across it when one sample strays. *)
let mean_of_medians = function
  | [] -> invalid_arg "Stats.mean_of_medians: empty sample"
  | samples ->
      let labels = List.sort_uniq String.compare (List.map fst samples) in
      let median_of l =
        median (List.filter_map (fun (l', x) -> if l' = l then Some x else None) samples)
      in
      List.fold_left (fun acc l -> acc +. median_of l) 0.0 labels
      /. float_of_int (List.length labels)

(* [statistics.quantiles xs ~n:4 ~method:"exclusive"]; a single sample
   is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quartiles: empty sample"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.0
      in
      (q 1, q 2, q 3)

(* Interquartile distance as a share of the median: the run-to-run
   spread every bound is compared against. *)
let rel_spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m

(* The nearest-rank position of percentile [p] among [n] samples
   (1-based); the epsilon keeps [90% of 100] at 90 despite rounding. *)
let rank p n = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(* The highest percentile of the ladder that still has at least ten
   samples beyond it — the only tail a sample of this size supports. *)
let tail_percentile n =
  List.find_opt (fun p -> n - rank p n >= 10) [ 99.9; 99.0; 90.0; 50.0 ]

let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  a.(max 0 (min (n - 1) (rank p n - 1)))

type better = Lower | Higher

let string_of_better = function Lower -> "lower" | Higher -> "higher"

type verdict = Ok | Regressed | Unresolved

let string_of_verdict = function
  | Ok -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* How much worse [change] is than [parent], as a share of [parent];
   negative when it is better. *)
let worsening ~better ~parent ~change =
  let d = (change -. parent) /. Float.abs parent in
  match better with Lower -> d | Higher -> -.d

(* The no-regression rule: the change's median may be worse than the
   parent's by at most [bound].  When either side's run-to-run spread is
   wider than the bound the comparison cannot resolve that, so the
   metric is unresolved — unless every change run beats every parent
   run. *)
let verdict ~better ~bound ~parent ~change =
  let beats a b = match better with Lower -> a < b | Higher -> a > b in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change
  in
  if Float.max (rel_spread parent) (rel_spread change) > bound then
    if all_better then Ok else Unresolved
  else if worsening ~better ~parent:(median parent) ~change:(median change) > bound
  then Regressed
  else Ok
