module Obs = Bn_obs.Obs

(* Synchronous runs happen in Pool.map_array sweeps (explorer trials,
   experiment grids) and sequential shrink loops — never under an
   early-exit scan — so all four counters are deterministic: identical
   at any -j and across same-seed reruns (asserted in test_obs). *)
let c_runs = Obs.counter "sync_net.runs"
let c_rounds = Obs.counter "sync_net.rounds"
let c_sent = Obs.counter "sync_net.messages_sent"
let c_dropped = Obs.counter "sync_net.messages_dropped"

type dest = To of int | All

type ('s, 'm, 'o) protocol = {
  init : int -> 's;
  send : round:int -> me:int -> 's -> (dest * 'm) list;
  recv : round:int -> me:int -> 's -> (int * 'm) list -> 's;
  output : me:int -> 's -> 'o option;
}

type 'm adversary = {
  corrupted : int list;
  behave : round:int -> me:int -> inbox:(int * 'm) list -> (dest * 'm) list;
}

let silent corrupted = { corrupted; behave = (fun ~round:_ ~me:_ ~inbox:_ -> []) }

(* Environment faults, orthogonal to the (process-level) adversary above,
   as [Faults.plan] compiles them: the round each process crash-stops in,
   and per round the links an event applies to plus the rewrite of one
   delivery over such a link. Honest-protocol code never sees this
   layer. *)
type 'm link_faults = {
  touched : src:int -> dst:int -> bool;
  deliver : src:int -> dst:int -> 'm -> (int * 'm) list;
}

type 'm fault_plan = {
  crash_round : int array;
  links : round:int -> 'm link_faults option;
}

type 'o result = {
  outputs : 'o option array;
  rounds_run : int;
  messages_sent : int;
  messages_dropped : int;
}

let out_of_range () = invalid_arg "Sync_net.run: destination out of range"

(* Puts a newest-first list of [sender]'s [(dst, payload)] arrivals into
   the inboxes oldest first. *)
let rec push_oldest_first inboxes sender = function
  | [] -> ()
  | (dst, m) :: older ->
    push_oldest_first inboxes sender older;
    inboxes.(dst) <- (sender, m) :: inboxes.(dst)

(* Inboxes are built back to front: senders descending, and each sender's
   arrivals oldest first, so every inbox comes out senders ascending with
   one sender's entries newest first — the order a stable sort by sender
   gives the round's arrivals listed newest first, with no sort and one
   cons per delivery. A broadcast shares one (sender, payload) pair
   across its recipients. Arrivals that do not take the plain path — those
   delayed from earlier rounds and those rewritten by the round's link
   events — wait in [early.((r - 1) * n + sender)], newest first; the
   rewrites are made before the inboxes are built, in delivery order
   (senders ascending), so the plan sees its calls in that order. *)
let run ?adversary ?faults ~n ~rounds protocol =
  if n <= 0 then invalid_arg "Sync_net.run: need processes";
  Obs.incr c_runs;
  Obs.span "sync_net.run" ~args:(fun () -> [ ("n", Obs.I n); ("rounds", Obs.I rounds) ])
  @@ fun () ->
  let corrupt = Array.make n false in
  let behave =
    match adversary with
    | None -> fun ~round:_ ~me:_ ~inbox:_ -> []
    | Some a ->
      List.iter (fun i -> if i >= 0 && i < n then corrupt.(i) <- true) a.corrupted;
      a.behave
  in
  let crash_round = match faults with None -> [||] | Some f -> f.crash_round in
  let crashed round me = me < Array.length crash_round && round >= crash_round.(me) in
  let states = Array.init n protocol.init in
  let inboxes = Array.make n [] in
  let outgoing = Array.make n [] in
  let early = Array.make (rounds * n) [] in
  (* touched.[src * n + dst]: the round's link events apply to the link. *)
  let touched = Bytes.make (match faults with None -> 0 | Some _ -> n * n) '\000' in
  let messages = ref 0 in
  let dropped = ref 0 in
  let rec rewrite (lf : 'm link_faults) round src = function
    | [] -> ()
    | (dest, msg) :: rest ->
      let deliver dst =
        if Bytes.unsafe_get touched ((src * n) + dst) <> '\000' then begin
          let deliveries = lf.deliver ~src ~dst msg in
          if deliveries = [] then incr dropped;
          List.iter
            (fun (r, m) ->
              if r > rounds then incr dropped
              else begin
                let slot = ((max r round - 1) * n) + src in
                early.(slot) <- (dst, m) :: early.(slot)
              end)
            deliveries
        end
      in
      (match dest with
      | To dst ->
        if dst < 0 || dst >= n then out_of_range ();
        deliver dst
      | All ->
        for dst = 0 to n - 1 do
          deliver dst
        done);
      rewrite lf round src rest
  in
  let rec route eventful src = function
    | [] -> ()
    | (dest, msg) :: rest ->
      (match dest with
      | To dst ->
        if dst < 0 || dst >= n then out_of_range ();
        incr messages;
        if not (eventful && Bytes.unsafe_get touched ((src * n) + dst) <> '\000') then
          inboxes.(dst) <- (src, msg) :: inboxes.(dst)
      | All ->
        messages := !messages + n;
        let entry = (src, msg) in
        for dst = 0 to n - 1 do
          if not (eventful && Bytes.unsafe_get touched ((src * n) + dst) <> '\000') then
            inboxes.(dst) <- entry :: inboxes.(dst)
        done);
      route eventful src rest
  in
  for round = 1 to rounds do
    Obs.span "sync_net.round" ~args:(fun () -> [ ("round", Obs.I round) ]) @@ fun () ->
    for me = 0 to n - 1 do
      outgoing.(me) <-
        (if crashed round me then []
         else if corrupt.(me) then behave ~round ~me ~inbox:inboxes.(me)
         else protocol.send ~round ~me states.(me))
    done;
    let eventful =
      match faults with
      | None -> false
      | Some f -> (
        match f.links ~round with
        | None -> false
        | Some lf ->
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              Bytes.unsafe_set touched ((src * n) + dst)
                (if lf.touched ~src ~dst then '\001' else '\000')
            done
          done;
          for src = 0 to n - 1 do
            rewrite lf round src outgoing.(src)
          done;
          true)
    in
    let base = (round - 1) * n in
    Array.fill inboxes 0 n [];
    for src = n - 1 downto 0 do
      push_oldest_first inboxes src early.(base + src);
      early.(base + src) <- [];
      route eventful src outgoing.(src)
    done;
    for me = 0 to n - 1 do
      if not (corrupt.(me) || crashed round me) then
        states.(me) <- protocol.recv ~round ~me states.(me) inboxes.(me)
    done
  done;
  let outputs =
    Array.init n (fun me ->
        if corrupt.(me) || crashed rounds me then None else protocol.output ~me states.(me))
  in
  Obs.add c_rounds rounds;
  Obs.add c_sent !messages;
  Obs.add c_dropped !dropped;
  { outputs; rounds_run = rounds; messages_sent = !messages; messages_dropped = !dropped }
