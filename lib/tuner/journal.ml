module Params = Gat_compiler.Params

type entry = { index : int; params : Params.t; time_ms : float option }

type t = {
  kernel : string;
  gpu : string;
  n : int;
  seed : int;
  strategy : string;
  mutable entries_rev : entry list;
  lock : Mutex.t;
}

let create ~kernel ~gpu ~n ~seed ~strategy =
  { kernel; gpu; n; seed; strategy; entries_rev = []; lock = Mutex.create () }

let recording t objective params =
  (* The objective runs outside the lock — it may be evaluated from
     Pool workers, and only the append must be serialized.  Index
     assignment and the push happen under the lock together so indices
     are dense and unique even under concurrent recording. *)
  let result = objective params in
  Mutex.protect t.lock (fun () ->
      let index = List.length t.entries_rev + 1 in
      t.entries_rev <- { index; params; time_ms = result } :: t.entries_rev);
  result

let entries t =
  Mutex.protect t.lock (fun () -> List.rev t.entries_rev)

let length t =
  Mutex.protect t.lock (fun () -> List.length t.entries_rev)

(* ---- serialization ---- *)

let header = [ "index"; "tc"; "bc"; "uif"; "pl"; "sc"; "fastmath"; "time_ms" ]

let entry_row e =
  let p = e.params in
  [
    string_of_int e.index;
    string_of_int p.Params.threads_per_block;
    string_of_int p.Params.block_count;
    string_of_int p.Params.unroll;
    string_of_int p.Params.l1_pref_kb;
    string_of_int p.Params.staging;
    (if p.Params.fast_math then "1" else "0");
    (match e.time_ms with Some time -> Printf.sprintf "%.9g" time | None -> "invalid");
  ]

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "#kernel=%s\n" t.kernel);
  Buffer.add_string buf (Printf.sprintf "#gpu=%s\n" t.gpu);
  Buffer.add_string buf (Printf.sprintf "#n=%d\n" t.n);
  Buffer.add_string buf (Printf.sprintf "#seed=%d\n" t.seed);
  Buffer.add_string buf (Printf.sprintf "#strategy=%s\n" t.strategy);
  Buffer.add_string buf (Gat_util.Csv.row_to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Gat_util.Csv.row_to_string (entry_row e));
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let meta = Hashtbl.create 8 in
  let rows = ref [] in
  let parse_error = ref None in
  List.iter
    (fun line ->
      if !parse_error <> None then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.index_opt line '=' with
        | Some eq ->
            Hashtbl.replace meta
              (String.sub line 1 (eq - 1))
              (String.sub line (eq + 1) (String.length line - eq - 1))
        | None -> parse_error := Some ("bad metadata line: " ^ line)
      end
      else if line = Gat_util.Csv.row_to_string header then ()
      else begin
        match String.split_on_char ',' line with
        | [ idx; tc; bc; uif; pl; sc; fm; time ] -> (
            let ints =
              List.map int_of_string_opt [ idx; tc; bc; uif; pl; sc; fm ]
            in
            match ints with
            | [ Some index; Some tc; Some bc; Some uif; Some pl; Some sc; Some fm ] ->
                let params =
                  Params.make ~threads_per_block:tc ~block_count:bc ~unroll:uif
                    ~l1_pref_kb:pl ~staging:sc ~fast_math:(fm = 1) ()
                in
                let time_ms =
                  if time = "invalid" then None else float_of_string_opt time
                in
                rows := { index; params; time_ms } :: !rows
            | _ -> parse_error := Some ("bad row: " ^ line))
        | _ -> parse_error := Some ("bad row: " ^ line)
      end)
    lines;
  match !parse_error with
  | Some e -> Error e
  | None -> (
      let get key = Hashtbl.find_opt meta key in
      match (get "kernel", get "gpu", get "n", get "seed", get "strategy") with
      | Some kernel, Some gpu, Some n, Some seed, Some strategy -> (
          match (int_of_string_opt n, int_of_string_opt seed) with
          | Some n, Some seed ->
              Ok
                {
                  kernel;
                  gpu;
                  n;
                  seed;
                  strategy;
                  entries_rev = !rows;
                  lock = Mutex.create ();
                }
          | _ -> Error "bad n/seed metadata")
      | _ -> Error "missing journal metadata")

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ---- replay ---- *)

type replay_report = {
  total : int;
  validity_matches : int;
  max_relative_deviation : float;
}

let replay t objective =
  let total = ref 0 and matches = ref 0 and worst = ref 0.0 in
  List.iter
    (fun e ->
      incr total;
      match (e.time_ms, objective e.params) with
      | None, None -> incr matches
      | Some recorded, Some fresh ->
          incr matches;
          if recorded > 0.0 then
            worst :=
              Float.max !worst (Float.abs (fresh -. recorded) /. recorded)
      | Some _, None | None, Some _ -> ())
    (entries t);
  { total = !total; validity_matches = !matches; max_relative_deviation = !worst }
