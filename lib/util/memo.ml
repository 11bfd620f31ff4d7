(* One lock and one condition per memo.  Slots are [Pending] from the
   miss that claims them until its computation publishes [Done] or
   fails; every publish or failure broadcasts, and each waiter
   re-examines its own key. *)

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'a slot = Pending | Done of 'a

  type 'a t = {
    table : 'a slot H.t;
    lock : Mutex.t;
    settled : Condition.t;
    mutable hits : int;
    mutable misses : int;
    m_hits : Metrics.counter option;
    m_misses : Metrics.counter option;
  }

  let create ?hits ?misses () =
    {
      table = H.create 64;
      lock = Mutex.create ();
      settled = Condition.create ();
      hits = 0;
      misses = 0;
      m_hits = hits;
      m_misses = misses;
    }

  let bump = Option.iter (fun c -> Metrics.incr c)

  (* Under the lock: [Some v] once the key is held (waiting out a
     pending slot), [None] after claiming it for the caller. *)
  let rec claim t key =
    match H.find_opt t.table key with
    | Some (Done v) ->
        t.hits <- t.hits + 1;
        bump t.m_hits;
        Some v
    | Some Pending ->
        Condition.wait t.settled t.lock;
        claim t key
    | None ->
        H.replace t.table key Pending;
        t.misses <- t.misses + 1;
        bump t.m_misses;
        None

  let publish t key v =
    Mutex.protect t.lock (fun () ->
        let v =
          match H.find_opt t.table key with
          | Some (Done held) -> held
          | Some Pending | None ->
              H.replace t.table key (Done v);
              v
        in
        Condition.broadcast t.settled;
        v)

  let find_or_compute t key f =
    match Mutex.protect t.lock (fun () -> claim t key) with
    | Some v -> v
    | None -> (
        match f () with
        | v -> publish t key v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.protect t.lock (fun () ->
                (match H.find_opt t.table key with
                | Some Pending -> H.remove t.table key
                | Some (Done _) | None -> ());
                Condition.broadcast t.settled);
            Printexc.raise_with_backtrace e bt)

  let add = publish

  let find t key =
    Mutex.protect t.lock (fun () ->
        match H.find_opt t.table key with
        | Some (Done v) -> Some v
        | Some Pending | None -> None)

  let length t = Mutex.protect t.lock (fun () -> H.length t.table)
  let hits t = Mutex.protect t.lock (fun () -> t.hits)
  let misses t = Mutex.protect t.lock (fun () -> t.misses)

  let clear t =
    Mutex.protect t.lock (fun () ->
        H.reset t.table;
        t.hits <- 0;
        t.misses <- 0)
end
