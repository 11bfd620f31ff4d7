(* Deterministic fault injection, driven by the GAT_FAULT environment
   variable (or set_spec).  Decisions are pure functions of
   (spec seed, site, key, attempt), so a chaos run is reproducible:
   the same spec injects faults into the same variants every time,
   independent of worker count or evaluation order. *)

type mode = Transient | Sticky
type rule = { prob : float; mode : mode }

type config = { seed : int; rules : (string * rule) list }

(* Guards the attempt counters and the first read of GAT_FAULT.  Once
   configured, [state] is read without it: the unarmed path of every
   [inject] is one atomic load. *)
let lock = Mutex.create ()

(* None = not yet configured (read GAT_FAULT lazily);
   Some None = configured off; Some (Some c) = active. *)
let state : config option option Atomic.t = Atomic.make None
let attempts : (string, int) Hashtbl.t = Hashtbl.create 64

exception Injected of string

let parse_entry entry =
  match String.split_on_char ':' (String.trim entry) with
  | [ "seed"; s ] -> (
      match int_of_string_opt s with
      | Some n -> `Seed n
      | None -> `Bad entry)
  | [ site; p ] | [ site; p; "transient" ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 ->
          `Rule (site, { prob = p; mode = Transient })
      | _ -> `Bad entry)
  | [ site; p; "sticky" ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 ->
          `Rule (site, { prob = p; mode = Sticky })
      | _ -> `Bad entry)
  | _ -> `Bad entry

let parse spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let config = ref { seed = 0; rules = [] } in
  let bad = ref None in
  List.iter
    (fun entry ->
      match parse_entry entry with
      | `Seed n -> config := { !config with seed = n }
      | `Rule (site, r) ->
          config := { !config with rules = (site, r) :: !config.rules }
      | `Bad e -> if !bad = None then bad := Some e)
    entries;
  match !bad with
  | Some e ->
      Error.failf Usage
        ~hint:"expected \"site:prob[:sticky]\" entries, e.g. \
               GAT_FAULT=\"compile:0.05,cache-write:1:sticky,seed:7\""
        "invalid GAT_FAULT entry %S" e
  | None -> if !config.rules = [] then None else Some !config

let set_spec spec =
  Mutex.protect lock (fun () ->
      Hashtbl.reset attempts;
      Atomic.set state (Some (match spec with None -> None | Some s -> parse s)))

let config () =
  match Atomic.get state with
  | Some c -> c
  | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get state with
          | Some c -> c
          | None ->
              let c =
                match Sys.getenv_opt "GAT_FAULT" with
                | None | Some "" -> None
                | Some s -> parse s
              in
              Atomic.set state (Some c);
              c)

let armed ~site =
  match config () with
  | None -> false
  | Some { rules; _ } -> List.mem_assoc site rules

(* 30 uniform bits from the structural hash; enough resolution for
   probabilities down to ~1e-9. *)
let chance ~seed ~site ~key ~salt prob =
  let h = Hashtbl.hash (seed, site, key, salt) in
  float_of_int (h land 0x3FFFFFFF) /. 1073741824.0 < prob

let inject ~site ~key =
  match config () with
  | None -> ()
  | Some { seed; rules } -> (
      match List.assoc_opt site rules with
      | None -> ()
      | Some { prob; mode } ->
          let id = site ^ "\x00" ^ key in
          let attempt =
            Mutex.protect lock (fun () ->
                let a =
                  1 + Option.value ~default:0 (Hashtbl.find_opt attempts id)
                in
                Hashtbl.replace attempts id a;
                a)
          in
          let salt = match mode with Sticky -> 0 | Transient -> attempt in
          if chance ~seed ~site ~key ~salt prob then begin
            Metrics.bump "fault.injected";
            Metrics.bump ("fault.injected." ^ site);
            Trace.instant "fault"
              ~args:[ ("site", Trace.S site); ("key", Trace.S key) ];
            raise
              (Injected
                 (Printf.sprintf "injected %s fault (%s, attempt %d)" site key
                    attempt))
          end)
