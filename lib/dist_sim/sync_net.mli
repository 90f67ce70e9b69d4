(** Synchronous round-based message-passing network simulator.

    Computation proceeds in lockstep rounds: every process emits messages,
    the network delivers them all, every process updates its state. Channels
    are private and authenticated (the receiver learns the true sender), as
    assumed by the cheap-talk results in paper §2. A {e broadcast channel}
    — a primitive that forces a sender to send the same value to everyone —
    is modelled by the [All] destination, which the simulator delivers
    identically to all processes, including for corrupted senders (that is
    exactly the extra power the n > 2k+2t regime assumes).

    Faulty behaviour is injected with an {!adversary}, which fully controls
    the corrupted processes: it sees their inboxes and chooses their
    outgoing messages (equivocation over unicast channels is allowed). *)

type dest = To of int | All

type ('s, 'm, 'o) protocol = {
  init : int -> 's;  (** Initial state from the process id. *)
  send : round:int -> me:int -> 's -> (dest * 'm) list;
      (** Messages to emit at the start of a round. *)
  recv : round:int -> me:int -> 's -> (int * 'm) list -> 's;
      (** State update given the round's inbox as (sender, message). The
          inbox is sorted by sender id; broadcast copies are included. *)
  output : me:int -> 's -> 'o option;  (** Decision, once reached. *)
}

type 'm adversary = {
  corrupted : int list;
  behave :
    round:int -> me:int -> inbox:(int * 'm) list -> (dest * 'm) list;
      (** Outgoing traffic of corrupted process [me] this round. *)
}

val silent : int list -> 'm adversary
(** Crash-from-the-start adversary: corrupted processes never send. *)

type 'm link_faults = {
  touched : src:int -> dst:int -> bool;
      (** Does an event of this round apply to the [src → dst] link? Must
          be a pure function: the network asks it once per link per round
          and routes every other delivery unchanged. *)
  deliver : src:int -> dst:int -> 'm -> (int * 'm) list;
      (** Rewrites one attempted delivery over a touched link into the
          [(delivery_round, payload)] list the network actually performs:
          [[]] drops it, two entries duplicate it, a later round delays it
          (messages delayed past the final round are lost), a changed
          payload corrupts it. Called in delivery order: senders
          ascending, each sender's messages in the order it emitted them,
          a broadcast's destinations ascending. *)
}
(** The link events of one round. *)

type 'm fault_plan = {
  crash_round : int array;
      (** [crash_round.(p)]: the first round in which [p] is
          crash-stopped, [max_int] if never; processes past the end of the
          array never crash. A crashed process sends nothing, stops
          updating its state, and produces no output. *)
  links : round:int -> 'm link_faults option;
      (** The round's link events, or [None] when the round has none;
          asked once at the start of each round. *)
}
(** Environment faults, orthogonal to the process-level {!adversary}.
    {!Bn_dist_sim.Faults.plan} compiles a declarative fault schedule into
    this once per run; honest-protocol code is unaffected. *)

type 'o result = {
  outputs : 'o option array;  (** Per-process decision (index = id). *)
  rounds_run : int;
  messages_sent : int;  (** Unicast count; a broadcast counts n messages. *)
  messages_dropped : int;
      (** Deliveries suppressed by the fault plan (drops, partition
          losses, and delays past the horizon). 0 without [?faults]. *)
}

val run :
  ?adversary:'m adversary ->
  ?faults:'m fault_plan ->
  n:int ->
  rounds:int ->
  ('s, 'm, 'o) protocol ->
  'o result
(** Runs [rounds] synchronous rounds with processes [0 … n−1]. Corrupted
    processes' protocol logic is replaced by the adversary, but their
    inboxes are still computed and exposed to it. The fault plan applies
    to all traffic — honest and adversarial alike — after it is emitted.

    Inbox order: senders ascending; one sender's entries newest first,
    where deliveries delayed into the round count as older than the
    round's fresh traffic. That is the order a stable sort by sender gives
    the list of the round's arrivals, newest first. *)
