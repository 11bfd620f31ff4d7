(** Fixed-width binning of float samples, used by the Fig. 4 thread-count
    histograms and the divergence study. *)

type t = {
  lo : float;  (** Inclusive lower edge of the first bin. *)
  hi : float;  (** Exclusive upper edge of the last bin. *)
  counts : int array;  (** Per-bin sample counts. *)
}

val create : lo:float -> hi:float -> bins:int -> float array -> t
(** [create ~lo ~hi ~bins xs] bins every [x] with [lo <= x < hi]; values
    outside the range are clamped into the edge bins so no sample is
    dropped.  [bins] must be positive and [lo < hi]. *)

val bin_edges : t -> (float * float) array
(** Lower/upper edge of each bin, in order. *)

val total : t -> int
(** Total number of binned samples. *)

val render : ?width:int -> ?label:(float -> string) -> t -> string
(** ASCII bar rendering, one bin per line, bars scaled to [width]
    characters (default 40).  [label] formats the bin's lower edge. *)

(** Log-bucketed, thread-safe, mergeable latency histograms.

    Every histogram shares one fixed global bucket scheme (exact
    values below 8 ns, then 4 sub-buckets per power of two, 256
    buckets total), so merging histograms from different processes —
    or different machines — is a plain bucket-wise sum.  Recording is
    two [fetch_and_add]s, cheap enough for per-block sweep phases and
    per-file cache operations. *)
module Log : sig
  type t

  val buckets : int
  (** Number of buckets in the global scheme (256). *)

  val create : unit -> t
  (** A fresh, empty histogram.  Its bucket cells are allocated by its
      first sample, so a registered histogram never recorded into costs
      a few words. *)

  val record : t -> int -> unit
  (** Record one sample in nanoseconds (negative clamps to 0). *)

  val bucket_of_ns : int -> int
  (** Bucket index a nanosecond value falls into. *)

  val bucket_lower : int -> int
  (** Inclusive lower edge (ns) of bucket [i]. *)

  val total : t -> int
  (** Total recorded samples. *)

  val sum_ns : t -> int
  (** Sum of all recorded samples in nanoseconds. *)

  val counts : t -> int array
  (** Snapshot of per-bucket counts, length {!buckets}. *)

  val of_counts : ?sum_ns:int -> int array -> t
  (** Rebuild a histogram from a {!counts} snapshot.  Raises
      [Invalid_argument] on a wrong-length array. *)

  val merge_into : into:t -> t -> unit
  (** Bucket-wise add [t] into [into]. *)

  val merge : t -> t -> t
  (** Fresh histogram holding the bucket-wise sum — associative and
      commutative, so fleet-wide folds are order-invariant. *)

  val reset : t -> unit
  (** Zero every bucket (and the sample sum). *)

  val percentile_ns : t -> float -> int
  (** [percentile_ns t q] is the lower edge of the first bucket whose
      cumulative count reaches [q] of the total ([q] in [0,1]); 0 for
      an empty histogram.  Deterministic and monotone in [q]. *)

  val pp_ns : int -> string
  (** Human-readable nanoseconds ("1.5ms", "2.10s"). *)

  val render : ?width:int -> t -> string
  (** ASCII bar rendering of the non-empty bucket range, bars scaled
      to [width] characters (default 40). *)
end
