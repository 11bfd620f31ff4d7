type report = {
  program_name : string;
  threads_per_block : int;
  barrier_count : int;
  interval_count : int;
  shared_accesses : int;
  divergent_barriers : Barrier_safety.finding list;
  races : Races.finding list;
}

type facts = {
  name : string;
  barriers : int;
  accesses : int;
  divergent : Barrier_safety.finding list;
  candidates : Races.pair list;
}

let m_analyzed = Gat_util.Metrics.counter "verify.analyzed"
let m_checked = Gat_util.Metrics.counter "verify.checked"
let m_unsafe = Gat_util.Metrics.counter "verify.unsafe"
let m_divergent = Gat_util.Metrics.counter "verify.divergent_barriers"
let m_races = Gat_util.Metrics.counter "verify.races"

let safe r = r.divergent_barriers = [] && r.races = []

let analyze (program : Gat_isa.Program.t) =
  Gat_util.Trace.span "verify.run"
    ~args:[ ("program", Gat_util.Trace.S program.Gat_isa.Program.name) ]
  @@ fun () ->
  let cfg = Gat_cfg.Cfg.of_program program in
  let intervals = Gat_cfg.Intervals.compute cfg in
  let accesses = Races.shared_accesses cfg in
  Gat_util.Metrics.incr m_analyzed;
  {
    name = program.Gat_isa.Program.name;
    barriers = Gat_cfg.Intervals.barrier_count intervals;
    accesses = List.length accesses;
    divergent = Barrier_safety.check cfg;
    candidates = Races.candidates intervals accesses;
  }

(* No span: binding a TC takes well under a microsecond, less than
   recording one. *)
let report ~threads_per_block f =
  let races = Races.witnesses ~threads_per_block f.candidates in
  let r =
    {
      program_name = f.name;
      threads_per_block;
      barrier_count = f.barriers;
      interval_count = f.barriers + 1;
      shared_accesses = f.accesses;
      divergent_barriers = f.divergent;
      races;
    }
  in
  Gat_util.Metrics.incr m_checked;
  if not (safe r) then Gat_util.Metrics.incr m_unsafe;
  Gat_util.Metrics.incr ~by:(List.length f.divergent) m_divergent;
  Gat_util.Metrics.incr ~by:(List.length races) m_races;
  r

let run ~threads_per_block program = report ~threads_per_block (analyze program)

let verdict r = if safe r then "SAFE" else "UNSAFE"

let plural n singular plural_form =
  Printf.sprintf "%d %s" n (if n = 1 then singular else plural_form)

let summary r =
  if safe r then
    Printf.sprintf "SAFE: %s, %s checked"
      (plural r.barrier_count "barrier" "barriers")
      (plural r.shared_accesses "shared access" "shared accesses")
  else
    Printf.sprintf "UNSAFE: %s, %s"
      (plural
         (List.length r.divergent_barriers)
         "divergent barrier" "divergent barriers")
      (plural (List.length r.races) "shared-memory race" "shared-memory races")

let render r =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let header = Printf.sprintf "verify: %s (TC=%d)" r.program_name r.threads_per_block in
  line "%s" header;
  line "%s" (String.make (String.length header) '=');
  line "";
  line "barriers: %d (%d interval%s)" r.barrier_count r.interval_count
    (if r.interval_count = 1 then "" else "s");
  line "shared accesses: %d" r.shared_accesses;
  line "";
  line "divergent barriers:";
  if r.divergent_barriers = [] then line "  none"
  else
    List.iter
      (fun f -> line "  %s" (Barrier_safety.finding_to_string f))
      r.divergent_barriers;
  line "";
  line "shared-memory races:";
  if r.races = [] then line "  none"
  else
    List.iter
      (fun f ->
        line "  %s"
          (Races.finding_to_string ~threads_per_block:r.threads_per_block f))
      r.races;
  line "";
  line "verdict: %s" (verdict r);
  Buffer.contents buf
