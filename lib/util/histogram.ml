type t = { lo : float; hi : float; counts : int array }

let create ~lo ~hi ~bins xs =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if lo >= hi then invalid_arg "Histogram.create: lo must be < hi";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let clamp i = max 0 (min (bins - 1) i) in
  Array.iter
    (fun x ->
      let i = clamp (int_of_float (Float.floor ((x -. lo) /. width))) in
      counts.(i) <- counts.(i) + 1)
    xs;
  { lo; hi; counts }

let bin_edges t =
  let bins = Array.length t.counts in
  let width = (t.hi -. t.lo) /. float_of_int bins in
  Array.init bins (fun i ->
      (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width)))

let total t = Array.fold_left ( + ) 0 t.counts

let render ?(width = 40) ?(label = fun x -> Printf.sprintf "%8.0f" x) t =
  let peak = Array.fold_left max 1 t.counts in
  let edges = bin_edges t in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i count ->
      let lo, _ = edges.(i) in
      let bar = count * width / peak in
      Buffer.add_string buf (label lo);
      Buffer.add_string buf " |";
      Buffer.add_string buf (String.make bar '#');
      Buffer.add_string buf (Printf.sprintf " %d\n" count))
    t.counts;
  Buffer.contents buf

(* ---- log-bucketed latency histograms ---- *)

module Log = struct
  (* Every histogram in the fleet uses one fixed, global bucket scheme,
     which is what makes "merge = bucket-wise sum" well defined across
     processes and machines: bucket [i] for [i < 8] holds the exact
     nanosecond value [i]; above that, values fall into 4 sub-buckets
     per power of two (bucket [4*b + sub] where [b = floor(log2 v)] and
     [sub] is the next two mantissa bits), i.e. ~19% relative bucket
     width.  256 buckets cover up to 2^63 ns — every representable
     duration. *)

  let buckets = 256

  (* The bucket cells are allocated by the first sample: a process
     registers every histogram at start-up and a short one records
     into few, so eager cells (about 6 KB each) would only grow its
     start-up allocation. *)
  type t = { cells : int Atomic.t array Atomic.t; sum_ns : int Atomic.t }

  let create () = { cells = Atomic.make [||]; sum_ns = Atomic.make 0 }

  let cells t =
    match Atomic.get t.cells with
    | [||] ->
        let fresh = Array.init buckets (fun _ -> Atomic.make 0) in
        if Atomic.compare_and_set t.cells [||] fresh then fresh
        else Atomic.get t.cells
    | cs -> cs

  let msb v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let bucket_of_ns v =
    if v <= 0 then 0
    else if v < 8 then v
    else
      let b = msb v in
      let sub = (v lsr (b - 2)) land 3 in
      min (buckets - 1) ((4 * b) + sub)

  let bucket_lower i =
    if i < 8 then i
    else
      let b = i / 4 and sub = i mod 4 in
      (1 lsl b) + (sub * (1 lsl (b - 2)))

  let record t ns =
    let ns = if ns < 0 then 0 else ns in
    ignore (Atomic.fetch_and_add (cells t).(bucket_of_ns ns) 1);
    ignore (Atomic.fetch_and_add t.sum_ns ns)

  let total t =
    Array.fold_left (fun acc c -> acc + Atomic.get c) 0 (Atomic.get t.cells)

  let sum_ns t = Atomic.get t.sum_ns

  let counts t =
    match Atomic.get t.cells with
    | [||] -> Array.make buckets 0
    | cs -> Array.map Atomic.get cs

  let of_counts ?(sum_ns = 0) cs =
    if Array.length cs <> buckets then
      invalid_arg "Histogram.Log.of_counts: wrong bucket count";
    { cells = Atomic.make (Array.map Atomic.make cs);
      sum_ns = Atomic.make sum_ns }

  let merge_into ~into t =
    Array.iteri
      (fun i c ->
        let n = Atomic.get c in
        if n <> 0 then ignore (Atomic.fetch_and_add (cells into).(i) n))
      (Atomic.get t.cells);
    let s = Atomic.get t.sum_ns in
    if s <> 0 then ignore (Atomic.fetch_and_add into.sum_ns s)

  let merge a b =
    let m = create () in
    merge_into ~into:m a;
    merge_into ~into:m b;
    m

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) (Atomic.get t.cells);
    Atomic.set t.sum_ns 0

  (* Lower edge of the first bucket whose cumulative count reaches
     [q * total] — deterministic (no interpolation), monotone in [q]. *)
  let percentile_ns t q =
    let n = total t in
    if n = 0 then 0
    else
      let want =
        let w = int_of_float (Float.ceil (q *. float_of_int n)) in
        max 1 (min n w)
      in
      let cum = ref 0 and found = ref 0 in
      (try
         Array.iteri
           (fun i c ->
             cum := !cum + Atomic.get c;
             if !cum >= want then begin
               found := bucket_lower i;
               raise Exit
             end)
           (Atomic.get t.cells)
       with Exit -> ());
      !found

  let pp_ns ns =
    let f = float_of_int ns in
    if ns >= 1_000_000_000 then Printf.sprintf "%.2fs" (f *. 1e-9)
    else if ns >= 1_000_000 then Printf.sprintf "%.1fms" (f *. 1e-6)
    else if ns >= 1_000 then Printf.sprintf "%.1fus" (f *. 1e-3)
    else Printf.sprintf "%dns" ns

  let render ?(width = 40) t =
    let cs = counts t in
    let peak = Array.fold_left max 1 cs in
    let first = ref buckets and last = ref (-1) in
    Array.iteri
      (fun i c ->
        if c <> 0 then begin
          if i < !first then first := i;
          if i > !last then last := i
        end)
      cs;
    if !last < 0 then "(empty)\n"
    else begin
      let b = Buffer.create 512 in
      for i = !first to !last do
        let bar = cs.(i) * width / peak in
        Buffer.add_string b (Printf.sprintf "%10s |" (pp_ns (bucket_lower i)));
        Buffer.add_string b (String.make bar '#');
        Buffer.add_string b (Printf.sprintf " %d\n" cs.(i))
      done;
      Buffer.contents b
    end
end
