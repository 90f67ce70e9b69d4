(** Deterministic fault injection for the distributed simulators.

    A {!schedule} is a declarative list of fault {!event}s — per-link
    message drop / duplicate / delay, network partitions with healing,
    crash-stop at a chosen round, and message-corruption hooks. {!plan}
    compiles a schedule into a {!Sync_net.fault_plan} that composes with
    any protocol and any {!Sync_net.adversary} without touching
    honest-protocol code; {!async_filter} gives the asynchronous analogue
    on top of any {!Async_net.scheduler}. {!random_schedule} draws
    seed-deterministic schedules from an indexed {!Bn_util.Prng} stream —
    the raw material for {!Explore}'s FoundationDB-style schedule
    exploration.

    Fault attribution: every event except a partition can be blamed on one
    process ({!culprits}) — the crashed process, or the sender whose
    outgoing messages are tampered with. A schedule whose culprits number
    at most [t] is a sub-Byzantine behaviour of [t] faulty processes, so a
    protocol correct against [t] Byzantine faults must satisfy its
    guarantees for the remaining processes ({!mask}) under any such
    schedule — the property the exploration suites check mechanically. *)

module Obs = Bn_obs.Obs

(* Applied per attempted delivery inside Sync_net rounds: deterministic
   for a fixed schedule, like the sync_net counters. *)
let c_link_events = Obs.counter "faults.link_events_applied"

type event =
  | Drop of { round : int; src : int; dst : int }
      (** Messages from [src] to [dst] sent in [round] are lost. *)
  | Duplicate of { round : int; src : int; dst : int }
      (** ... are delivered twice in the same round. *)
  | Delay of { round : int; src : int; dst : int; by : int }
      (** ... arrive [by] rounds late (lost past the horizon). *)
  | Crash of { proc : int; round : int }
      (** [proc] crash-stops at the start of [round]: sends nothing from
          [round] on and produces no output. *)
  | Partition of { from_round : int; heal_round : int; groups : int list list }
      (** Messages crossing group boundaries are lost for rounds
          [from_round <= r < heal_round] (the partition heals at
          [heal_round]). Processes absent from [groups] are isolated. *)
  | Corrupt of { round : int; src : int; dst : int }
      (** The payload is rewritten by the [?corrupt] hook given to {!plan}
          (delivered unchanged when no hook is supplied). *)

type schedule = event list

let event_to_string = function
  | Drop { round; src; dst } -> Printf.sprintf "drop r%d %d->%d" round src dst
  | Duplicate { round; src; dst } -> Printf.sprintf "dup r%d %d->%d" round src dst
  | Delay { round; src; dst; by } -> Printf.sprintf "delay r%d %d->%d +%d" round src dst by
  | Crash { proc; round } -> Printf.sprintf "crash p%d@r%d" proc round
  | Partition { from_round; heal_round; groups } ->
    Printf.sprintf "partition r%d-r%d [%s]" from_round heal_round
      (String.concat " | "
         (List.map (fun g -> String.concat " " (List.map string_of_int g)) groups))
  | Corrupt { round; src; dst } -> Printf.sprintf "corrupt r%d %d->%d" round src dst

let schedule_to_string schedule =
  Printf.sprintf "[%s]" (String.concat "; " (List.map event_to_string schedule))

(* {1 Fault attribution} *)

let culprits schedule =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Drop { src; _ } | Duplicate { src; _ } | Delay { src; _ } | Corrupt { src; _ } ->
           Some src
         | Crash { proc; _ } -> Some proc
         | Partition _ -> None)
       schedule)

let mask schedule outputs =
  let bad = culprits schedule in
  Array.mapi (fun i o -> if List.mem i bad then None else o) outputs

(* {1 Partitions}

   A partition as, per process it lists, the index of the first group
   holding it (-1 for none). Two processes share a group iff both have an
   index and the indices are equal, or neither has one and they are the
   same process (isolated, unlisted processes are their own singleton
   group). The one reading of partition groups, for both networks. *)
let group_index groups =
  let top = List.fold_left (List.fold_left max) (-1) groups in
  let idx = Array.make (top + 1) (-1) in
  List.iteri
    (fun gi g -> List.iter (fun v -> if v >= 0 && idx.(v) < 0 then idx.(v) <- gi) g)
    groups;
  idx

let separated idx a b =
  let ga = if a < Array.length idx then idx.(a) else -1 in
  let gb = if b < Array.length idx then idx.(b) else -1 in
  if ga < 0 && gb < 0 then a <> b else ga <> gb

(* {1 Compiling a schedule to a synchronous fault plan} *)

(* The schedule is compiled once: the round each process crash-stops in,
   and the link events (partitions with their group index) in schedule
   order. Each round keeps the events active in it; Sync_net builds its
   mask of touched links from them and asks [deliver] only for those
   links, which folds the round's matching events, in schedule order, over
   the intact singleton delivery. *)
let plan ?corrupt schedule =
  let top =
    List.fold_left (fun acc -> function Crash { proc; _ } -> max acc proc | _ -> acc) (-1) schedule
  in
  let crash_round = Array.make (top + 1) max_int in
  List.iter
    (function
      | Crash { proc; round } when proc >= 0 -> crash_round.(proc) <- min crash_round.(proc) round
      | _ -> ())
    schedule;
  let events =
    List.filter_map
      (function
        | Crash _ -> None
        | Partition { groups; _ } as ev -> Some (ev, group_index groups)
        | ev -> Some (ev, [||]))
      schedule
  in
  let active round (ev, _) =
    match ev with
    | Drop { round = r; _ } | Duplicate { round = r; _ } | Delay { round = r; _ } | Corrupt { round = r; _ } ->
      r = round
    | Partition { from_round; heal_round; _ } -> round >= from_round && round < heal_round
    | Crash _ -> false
  in
  let hits src dst (ev, idx) =
    match ev with
    | Drop { src = s; dst = d; _ }
    | Duplicate { src = s; dst = d; _ }
    | Delay { src = s; dst = d; _ }
    | Corrupt { src = s; dst = d; _ } ->
      s = src && d = dst
    | Partition _ -> separated idx src dst
    | Crash _ -> false
  in
  let rec any src dst = function [] -> false | e :: rest -> hits src dst e || any src dst rest in
  let links ~round =
    match List.filter (active round) events with
    | [] -> None
    | evs ->
      let deliver ~src ~dst m =
        (* Each applied event bumps the (deterministic) counter and, when
           tracing, leaves an instant on the trace timeline. *)
        let applied = ref 0 in
        let hit name =
          incr applied;
          Obs.instant name
            ~args:(fun () -> [ ("round", Obs.I round); ("src", Obs.I src); ("dst", Obs.I dst) ])
        in
        let deliveries =
          List.fold_left
            (fun deliveries ((ev, _) as e) ->
              if not (hits src dst e) then deliveries
              else
                match ev with
                | Drop _ ->
                  hit "fault.drop";
                  []
                | Duplicate _ ->
                  hit "fault.dup";
                  List.concat_map (fun x -> [ x; x ]) deliveries
                | Delay { by; _ } ->
                  hit "fault.delay";
                  List.map (fun (r', m') -> (r' + max 0 by, m')) deliveries
                | Partition _ ->
                  hit "fault.partition";
                  []
                | Corrupt _ -> (
                  hit "fault.corrupt";
                  match corrupt with
                  | None -> deliveries
                  | Some f -> List.map (fun (r', m') -> (r', f ~round ~src ~dst m')) deliveries)
                | Crash _ -> deliveries)
            [ (round, m) ]
            evs
        in
        Obs.add c_link_events !applied;
        deliveries
      in
      Some { Sync_net.touched = (fun ~src ~dst -> any src dst evs); deliver }
  in
  { Sync_net.crash_round; links }

(* {1 Asynchronous faults} *)

let async_filter rng ~drop ~dup =
  if drop < 0.0 || dup < 0.0 || drop +. dup > 1.0 then
    invalid_arg "Faults.async_filter: need drop, dup >= 0 and drop + dup <= 1";
  fun ~step:_ (_ : 'm Async_net.in_flight) ->
    let u = Bn_util.Prng.float rng in
    if u < drop then Async_net.Drop
    else if u < drop +. dup then Async_net.Duplicate
    else Async_net.Deliver

(* The asynchronous readings look a schedule up once per message, so each
   compiles the events it needs once, into the links they touch: a flat
   [| src0; dst0; src1; dst1; ... |] array in schedule order. Rounds do
   not exist here: events apply by link, whatever their [round] field. *)
let links_of pick schedule =
  Array.of_list
    (List.fold_right
       (fun ev acc -> match pick ev with Some (src, dst) -> src :: dst :: acc | None -> acc)
       schedule [])

(* Position of the first (src, dst) entry in [links], or -1: the same
   position for every lookup of one link. *)
let find_link links src dst =
  let k = Array.length links / 2 in
  let i = ref 0 in
  while !i < k && not (links.(2 * !i) = src && links.((2 * !i) + 1) = dst) do
    incr i
  done;
  if !i < k then !i else -1

let mem_int (x : int) a =
  let k = Array.length a in
  let i = ref 0 in
  while !i < k && a.(!i) <> x do
    incr i
  done;
  !i < k

(* Once the scheduler has picked a message, a crash silences every message
   its victim sends, and a drop/corrupt/duplicate applies to every delivery
   on its (src, dst) link. Duplicate fires once per link — Async_net
   re-enqueues the copy as a fresh in-flight message, so an unconditional
   Duplicate verdict would re-duplicate its own copies forever. The
   filter's only state is the once-per-link memo, kept at the link's first
   entry and created fresh per call, so one plan value must not be shared
   across runs. *)
let async_plan ?corrupt schedule =
  let crashed =
    Array.of_list (List.filter_map (function Crash { proc; _ } -> Some proc | _ -> None) schedule)
  in
  let dropped = links_of (function Drop { src; dst; _ } -> Some (src, dst) | _ -> None) schedule in
  let corrupted =
    links_of (function Corrupt { src; dst; _ } -> Some (src, dst) | _ -> None) schedule
  in
  let duplicated =
    links_of (function Duplicate { src; dst; _ } -> Some (src, dst) | _ -> None) schedule
  in
  let dup_used = Array.make (Array.length duplicated / 2) false in
  fun ~step:_ (m : 'm Async_net.in_flight) ->
    let src = m.Async_net.sender and dst = m.Async_net.dest in
    if mem_int src crashed || find_link dropped src dst >= 0 then begin
      Obs.incr c_link_events;
      Async_net.Drop
    end
    else if find_link corrupted src dst >= 0 then begin
      Obs.incr c_link_events;
      match corrupt with
      | None -> Async_net.Deliver
      | Some f -> Async_net.Replace (f ~src ~dst m.Async_net.payload)
    end
    else
      let l = find_link duplicated src dst in
      if l >= 0 && not dup_used.(l) then begin
        Obs.incr c_link_events;
        dup_used.(l) <- true;
        Async_net.Duplicate
      end
      else Async_net.Deliver

(* Delay and Partition have no asynchronous loss semantics: they become
   pure scheduling pressure. Matching messages are starved while any fresh
   message is pending but are still delivered once only starved messages
   remain, so eventual delivery (fairness) is preserved — the no-culprit
   events of {!culprits} stay harmless on their own, exactly as in the
   synchronous reading where partitions heal. A schedule with neither is
   plain FIFO. *)
let async_scheduler schedule =
  if not (List.exists (function Delay _ | Partition _ -> true | _ -> false) schedule) then
    Async_net.fifo
  else begin
    let delayed = links_of (function Delay { src; dst; _ } -> Some (src, dst) | _ -> None) schedule in
    let partitions =
      List.filter_map (function Partition { groups; _ } -> Some (group_index groups) | _ -> None) schedule
    in
    let starved (m : 'm Async_net.in_flight) =
      let src = m.Async_net.sender and dst = m.Async_net.dest in
      find_link delayed src dst >= 0 || List.exists (fun idx -> separated idx src dst) partitions
    in
    fun pending len ->
      let i = ref 0 in
      while !i < len && starved pending.(!i) do
        incr i
      done;
      if !i < len then !i else 0
  end

(* {1 Seed-deterministic random schedules} *)

type kind = KDrop | KDuplicate | KDelay | KCrash | KPartition | KCorrupt

type gen = {
  n : int;  (** processes 0..n-1 *)
  rounds : int;  (** fault events target rounds 1..rounds *)
  max_events : int;  (** 1..max_events events per schedule *)
  kinds : kind list;  (** allowed event kinds *)
  max_culprits : int;  (** blameable events confined to this many processes *)
}

let random_schedule rng g =
  if g.n <= 0 || g.rounds <= 0 || g.max_events <= 0 then
    invalid_arg "Faults.random_schedule: need n, rounds, max_events > 0";
  if g.kinds = [] then invalid_arg "Faults.random_schedule: need at least one kind";
  let kinds = Array.of_list g.kinds in
  (* Pre-draw the culprit pool: all blameable events use these processes
     as crash victim / tampered sender, so |culprits| <= max_culprits. *)
  let procs = Array.init g.n Fun.id in
  Bn_util.Prng.shuffle rng procs;
  let pool = Array.sub procs 0 (max 1 (min g.max_culprits g.n)) in
  let events = 1 + Bn_util.Prng.int rng g.max_events in
  List.init events (fun _ ->
      let round = 1 + Bn_util.Prng.int rng g.rounds in
      let src = Bn_util.Prng.pick rng pool in
      let dst = Bn_util.Prng.int rng g.n in
      match Bn_util.Prng.pick rng kinds with
      | KDrop -> Drop { round; src; dst }
      | KDuplicate -> Duplicate { round; src; dst }
      | KDelay -> Delay { round; src; dst; by = 1 + Bn_util.Prng.int rng 2 }
      | KCrash -> Crash { proc = src; round }
      | KPartition ->
        (* Random cut into two camps; heals after 1-2 rounds. *)
        let side = Array.init g.n (fun _ -> Bn_util.Prng.bool rng) in
        let group b = List.filter (fun i -> side.(i) = b) (List.init g.n Fun.id) in
        Partition
          {
            from_round = round;
            heal_round = round + 1 + Bn_util.Prng.int rng 2;
            groups = [ group true; group false ];
          }
      | KCorrupt -> Corrupt { round; src; dst })

let crash_only ~n ~rounds ~max_crashes =
  { n; rounds; max_events = max_crashes; kinds = [ KCrash ]; max_culprits = max_crashes }

let omission ~n ~rounds ~max_events ~max_culprits =
  { n; rounds; max_events; kinds = [ KDrop; KDelay; KDuplicate; KCrash ]; max_culprits }

let byzantine ~n ~rounds ~max_events ~max_culprits =
  { n; rounds; max_events; kinds = [ KDrop; KDelay; KDuplicate; KCrash; KCorrupt ]; max_culprits }
