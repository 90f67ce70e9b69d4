module Obs = Bn_obs.Obs

(* Scenario sweeps go through Pool.map (no early exit), so these are
   deterministic for any -j. *)
let c_runs = Obs.counter "async_net.runs"
let c_steps = Obs.counter "async_net.steps"
let c_dropped = Obs.counter "async_net.dropped"

type ('s, 'm) process = {
  init : int -> 's * (int * 'm) list;
  on_message : me:int -> 's -> sender:int -> 'm -> 's * (int * 'm) list;
  decided : 's -> int option;
}

type 'm in_flight = { sender : int; dest : int; payload : 'm; seq : int }

(* Pending messages sit in an array in posting order (so in [seq] order),
   and a scheduler returns the index of the one to deliver. *)
type 'm scheduler = 'm in_flight array -> int -> int

let fifo _ _ = 0

(* The draw counts from the newest message; seeded transcripts (E15) are
   pinned to that order. *)
let random rng _ len = len - 1 - Bn_util.Prng.int rng len

let delayer ~victim ~budget pending len =
  if !budget <= 0 then 0
  else begin
    let i = ref 0 in
    while !i < len && pending.(!i).sender = victim do
      incr i
    done;
    if !i < len then begin
      decr budget;
      !i
    end
    else 0
  end

(* Environment faults for the asynchronous network: once the scheduler has
   committed to delivering a message, the filter may still [Drop] it (it
   vanishes — no retransmission), [Duplicate] it (delivered now and
   re-enqueued as a fresh in-flight copy), or [Replace] its payload (the
   asynchronous face of {!Faults.Corrupt}). [step] is the 0-based delivery
   step, so filters driven by a {!Bn_util.Prng} stream are deterministic
   for a fixed seed and scheduler. *)
type 'm fault_verdict = Deliver | Drop | Duplicate | Replace of 'm

type 'm fault_filter = step:int -> 'm in_flight -> 'm fault_verdict

type 'o result = {
  decisions : 'o option array;
  steps : int;
  undelivered : int;
  dropped : int;
}

let run ?(max_steps = 100_000) ?faults ~n ~scheduler process =
  if n <= 0 then invalid_arg "Async_net.run: need processes";
  Obs.incr c_runs;
  Obs.span "async_net.run" ~args:(fun () -> [ ("n", Obs.I n) ])
  @@ fun () ->
  let seq = ref 0 in
  (* In-flight messages: [pending.(0 .. len-1)], oldest first. *)
  let pending = ref [||] and len = ref 0 in
  let post sender (dest, payload) =
    if dest < 0 || dest >= n then invalid_arg "Async_net.run: destination out of range";
    let m = { sender; dest; payload; seq = !seq } in
    incr seq;
    if !len = Array.length !pending then begin
      let grown = Array.make (max 16 (2 * !len)) m in
      Array.blit !pending 0 grown 0 !len;
      pending := grown
    end;
    !pending.(!len) <- m;
    incr len
  in
  let states =
    Array.init n (fun me ->
        let state, outgoing = process.init me in
        List.iter (post me) outgoing;
        state)
  in
  (* Only the receiving process's state changes in a step, so only its
     entry is re-examined. *)
  let decided = Array.map (fun s -> process.decided s <> None) states in
  let undecided = ref (Array.fold_left (fun k d -> if d then k else k + 1) 0 decided) in
  let steps = ref 0 in
  let dropped = ref 0 in
  while !undecided > 0 && !len > 0 && !steps < max_steps do
    let q = !pending in
    let i = scheduler q !len in
    if i < 0 || i >= !len then invalid_arg "Async_net.run: scheduler index out of range";
    let m = q.(i) in
    Array.blit q (i + 1) q i (!len - i - 1);
    decr len;
    let verdict =
      match faults with None -> Deliver | Some f -> f ~step:!steps m
    in
    (match verdict with
    | Drop -> incr dropped
    | (Deliver | Duplicate | Replace _) as v ->
      (match v with Duplicate -> post m.sender (m.dest, m.payload) | _ -> ());
      let payload = match v with Replace p -> p | _ -> m.payload in
      let d = m.dest in
      let state, outgoing = process.on_message ~me:d states.(d) ~sender:m.sender payload in
      states.(d) <- state;
      let now = process.decided state <> None in
      if now <> decided.(d) then begin
        decided.(d) <- now;
        undecided := !undecided + if now then -1 else 1
      end;
      List.iter (post d) outgoing);
    incr steps
  done;
  Obs.add c_steps !steps;
  Obs.add c_dropped !dropped;
  {
    decisions = Array.map process.decided states;
    steps = !steps;
    undelivered = !len;
    dropped = !dropped;
  }

let run_scenarios ?max_steps ?(pool = Bn_util.Pool.serial) ~n schedulers process =
  (* Each scenario builds its scheduler on its own domain (schedulers may
     carry private mutable state, e.g. [delayer]'s budget), and every run
     is an independent simulation, so results are scenario-order
     deterministic for any pool size. *)
  Bn_util.Pool.map pool (fun mk -> run ?max_steps ~n ~scheduler:(mk ()) process) schedulers
