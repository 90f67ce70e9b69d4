(** Asynchronous message-passing with an adversarial scheduler.

    The paper's §5 stresses that all of §2's results assume synchrony and
    that "things are more complicated in asynchronous settings". This
    module makes that concrete: computation is event-driven, and a
    {e scheduler} — possibly adversarial — picks which in-flight message is
    delivered next. Experiment E15 uses it to show an adversarial scheduler
    delaying consensus linearly in its delay budget, while the synchronous
    simulator decides in a fixed number of rounds. *)

type ('s, 'm) process = {
  init : int -> 's * (int * 'm) list;
      (** Initial state and initial messages (destination, payload). *)
  on_message : me:int -> 's -> sender:int -> 'm -> 's * (int * 'm) list;
  decided : 's -> int option;
}

type 'm in_flight = { sender : int; dest : int; payload : 'm; seq : int }
(** A pending message; [seq] is a global sequence number (FIFO order). *)

type 'm scheduler = 'm in_flight array -> int -> int
(** [scheduler pending len] chooses the next message to deliver: an index
    in [[0, len)] of [pending], whose first [len] entries are the messages
    in flight in posting order ([seq] ascending), [len > 0]. Entries from
    [len] on are stale. {!run} removes the chosen message by shifting the
    later ones down one slot. *)

val fifo : 'm scheduler
(** Deliver in global send order (the synchronous-like baseline): index 0. *)

val random : Bn_util.Prng.t -> 'm scheduler
(** Uniformly random pending message: [len - 1 - Prng.int rng len]. *)

val delayer : victim:int -> budget:int ref -> 'm scheduler
(** Adversarial: starves messages {e from} [victim] while any other message
    is pending, spending one unit of [budget] per starvation step (it then
    delivers the oldest other message); once the budget is exhausted it
    behaves like {!fifo}. (A finite budget models the eventual-delivery
    fairness assumption.) *)

type 'm fault_verdict = Deliver | Drop | Duplicate | Replace of 'm

type 'm fault_filter = step:int -> 'm in_flight -> 'm fault_verdict
(** Applied after the scheduler commits to a message: [Drop] loses it (no
    retransmission), [Duplicate] delivers it and re-enqueues a fresh copy,
    [Replace p] delivers payload [p] instead (a Byzantine link — the
    asynchronous face of {!Bn_dist_sim.Faults.Corrupt}). [step] is the
    0-based delivery step, so a {!Bn_util.Prng}-driven filter is
    deterministic for a fixed seed and scheduler — see
    {!Bn_dist_sim.Faults.async_filter} and
    {!Bn_dist_sim.Faults.async_plan}. *)

type 'o result = {
  decisions : 'o option array;
  steps : int;  (** Scheduler steps taken (including dropped ones). *)
  undelivered : int;  (** Messages still in flight at the end. *)
  dropped : int;  (** Messages lost by the fault filter. *)
}

val run :
  ?max_steps:int ->
  ?faults:'m fault_filter ->
  n:int ->
  scheduler:'m scheduler ->
  ('s, 'm) process ->
  int result
(** Runs until every process has decided, no messages are pending, or
    [max_steps] (default 100_000) deliveries have happened.
    @raise Invalid_argument on a destination outside [[0, n)] or a
    scheduler index outside the pending messages. *)

val run_scenarios :
  ?max_steps:int ->
  ?pool:Bn_util.Pool.t ->
  n:int ->
  (unit -> 'm scheduler) list ->
  ('s, 'm) process ->
  int result list
(** [run_scenarios ~pool ~n makers process] runs one independent simulation
    per scheduler thunk, in parallel on [pool] (default serial), returning
    results in input order. Thunks are invoked on the worker domain so
    stateful schedulers (like {!delayer}) get private state per scenario. *)
