(** One persistent cache: a directory of {!Sealed_file} entries with
    its own switch, degrade latch, counters and upkeep.

    The sweep cache ([Gat_tuner.Disk_cache]) and the artifact store
    ([Gat_compiler.Artifacts]) are each one [t] plus their keys and
    payload codecs.  Every entry is a header (the format's magic and
    version lines) and a codec's payload, sealed; {!find} turns every
    failure — absent, unreadable, damaged, a foreign header, a payload
    the codec does not consume exactly — into a miss, and {!store}
    turns every write failure into a one-time warning and a latched-off
    store.  The two stores share no state: one degrading leaves the
    other writing. *)

type t

val create :
  name:string ->
  metrics:string ->
  site:string ->
  dir:(unit -> string) ->
  suffixes:string list ->
  ?stages:string list ->
  unit ->
  t
(** [name] labels the degrade warning (["gat: warning: <name>
    unavailable"]).  [metrics] prefixes the counters
    [<metrics>.{hits,misses,stores,degraded_writes,bytes_read,
    bytes_written}] and, per stage, [<metrics>.<stage>.{hits,misses}].
    [site] names the fault sites [<site>-read] / [<site>-write] and the
    trace spans and histograms [<site>.read] / [<site>.write].  [dir]
    is resolved on every call.  The first of [suffixes] names the
    entries {!disk_usage} counts; {!files} lists all of them. *)

val dir : t -> string

val path : t -> string -> string
(** [path t file] is [file] inside {!dir}. *)

(** {1 Switch and degrade latch} *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** [false] makes {!find} a silent [None] and {!store} a no-op
    ([--no-cache]). *)

val degraded : t -> bool
(** True once a {!store} failed; later stores are skipped. *)

val reset_degraded : t -> unit

(** {1 Counters} *)

type stats = { hits : int; misses : int; stores : int }

val stats : t -> stats
(** Read from the {!Metrics} counters; tests take before/after
    deltas. *)

val counter : t -> string -> Metrics.counter
(** [counter t name] is the counter [<metrics>.<name>] (e.g. the sweep
    cache's [ckpt.stores]). *)

(** {1 Payload reader}

    An index cursor over the verified payload, line by line.  Every
    reader raises on malformed input; the entry then reads as a
    miss. *)

type cursor

val bad : unit -> 'a
(** Reject the entry. *)

val line : cursor -> string
(** The next whole line. *)

val counted : cursor -> string -> int
(** A line ["<tag> <n>"] with [n >= 0]; returns [n]. *)

val start : cursor -> unit
(** Begin reading fields from the next line. *)

val keyword : cursor -> string -> unit
(** The next field must be exactly this word. *)

val word : cursor -> string
val int : cursor -> int

val float : cursor -> float
(** Exact: [%h] literals parse bit-identically. *)

val rest : cursor -> string
(** The remainder of the line after one separating space, verbatim;
    ends the line. *)

val end_line : cursor -> unit
(** No fields may remain on the line. *)

(** {1 Entries} *)

val find :
  t -> ?stage:string -> header:string -> string -> (cursor -> 'a) -> 'a option
(** [find t ~header path parse]: unless disabled, read [path] (fault
    site [<site>-read], byte counter), unseal, match [header], and
    [parse] the rest, which must consume the whole payload.  Counts a
    hit or a miss (also under [stage]); any failure is a miss. *)

val store :
  t ->
  ?counter:Metrics.counter ->
  header:string ->
  string ->
  (Buffer.t -> unit) ->
  unit
(** [store t ~header path emit]: unless disabled or degraded, write
    [header] and [emit]'s payload, seal and publish atomically (fault
    site [<site>-write]), and count [counter] (default
    [<metrics>.stores]).  [Sys_error] or an injected fault degrades the
    store; never raises for either. *)

val read : t -> header:string -> string -> (cursor -> 'a) -> 'a option
(** {!find} without the switch or the hit/miss counters: [None] when
    absent or damaged. *)

val parse : header:string -> string -> (cursor -> 'a) -> 'a option
(** {!read} of an unsealed payload held in memory. *)

val write : t -> header:string -> string -> (Buffer.t -> unit) -> unit
(** {!store} without the switch, the latch or the store counter: raises
    [Sys_error] or {!Fault.Injected} so the caller applies its own
    retry policy. *)

(** {1 Upkeep} *)

val files : t -> string list
(** Every file of the store's suffixes, plus orphaned [.tmp] files,
    sorted by path. *)

val disk_usage : t -> int * int
(** [(entries, bytes)] over the files of the first suffix. *)

val clear : t -> int
(** Remove {!files}; returns the number removed.  Nothing else in the
    directory is touched. *)
