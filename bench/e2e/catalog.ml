(* What the benchmark measures: its workloads, the end-to-end metrics
   every untraced run prints and the per-layer metrics every traced run
   prints.  BENCHMARK.json at the repository root lists the same names,
   units, directions and bounds; the unit test holds the two together. *)

type metric = {
  name : string;
  unit_ : string;
  better : Stats.better;
  bound : float;  (** Allowed worsening, as a share of the parent's median. *)
}

let workloads =
  [
    ( "reproduce",
      "the paper's report pipeline in fresh processes, cold then over the \
       cache it left; inputs pinned to the paper's seed" );
    ( "static-tune",
      "the paper's use: static and static+rules autotuning without an \
       exhaustive sweep; never touches the sweep cache, pool or shards" );
    ( "edit-resweep",
      "a developer editing one statement and re-sweeping: the artifact \
       store serves the untouched blocks, the sweep cache always misses" );
    ( "fleet-sweep",
      "sharded sweeps with worker processes: the only workload that runs \
       leases, shard merges and telemetry snapshots" );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound }
let layer name unit_ better = { name; unit_; better; bound = 0.0 }

(* Bounds follow the measured noise.  On the reference host (a shared
   2-vCPU virtual machine) a fixed CPU loop's speed alone drifts by
   7-20% over minutes (interquartile range over median), so timings get
   a 25% bound; peak memory moves by up to 7% with garbage-collection
   timing, and the cache footprint by 0.1%. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "cold_p50_ms" "ms" Lower 0.25;
    e2e "warm_p50_ms" "ms" Lower 0.25;
    e2e "points_per_s" "1/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.20;
    e2e "cache_mb" "MB" Lower 0.02;
  ]

(* Layers every workload exercises.  Rows only some workloads reach
   (sweep cache, pool, shards, report rendering) are in the ledger file
   and the printed table, not here: a layer a workload never enters
   would read exactly zero on every run. *)
let timed_layers =
  [
    "lowering";
    "schedule";
    "regalloc";
    "coalescing";
    "block_table";
    "compile";
    "verify";
    "engine";
    "tuner";
    "unattributed";
  ]

(* (metric prefix, hits counter, misses counter) *)
let hit_ratios =
  [
    ("codegen_cache", "cache.codegen.hits", "cache.codegen.misses");
    ("verdict_cache", "cache.verdict.hits", "cache.verdict.misses");
    ("compile_cache", "cache.compile.hits", "cache.compile.misses");
    ("artifacts", "artifact.hits", "artifact.misses");
  ]

let per_layer =
  List.map (fun l -> layer (Ledger.metric_name l) "s" Lower) timed_layers
  @ [
      layer "trace.overhead_pct" "%" Lower;
      layer "compile.calls" "count" Lower;
      layer "engine.runs" "count" Lower;
    ]
  @ List.concat_map
      (fun (p, _, _) ->
        [ layer (p ^ ".hit_ratio") "ratio" Higher; layer (p ^ ".lookups") "count" Lower ])
      hit_ratios
  @ [
      layer "artifacts.bytes_read" "bytes" Lower;
      layer "artifacts.bytes_written" "bytes" Lower;
    ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
