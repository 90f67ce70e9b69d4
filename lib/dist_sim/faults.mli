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

val event_to_string : event -> string
val schedule_to_string : schedule -> string

(** {1 Fault attribution} *)

val culprits : schedule -> int list
(** Sorted, deduplicated blameable processes: crash victims and tampered
    senders. Partitions blame nobody. *)

val culprit_flags : n:int -> schedule -> bool array
(** [culprit_flags ~n schedule] marks, of processes [0 … n−1], those in
    {!culprits}. *)

val mask : schedule -> 'a option array -> 'a option array
(** [mask schedule outputs] erases the culprits' slots — correctness
    checks only constrain the processes the schedule did not corrupt. *)

(** {1 Compiling a schedule to a synchronous fault plan} *)

val plan :
  ?corrupt:(round:int -> src:int -> dst:int -> 'm -> 'm) ->
  schedule ->
  'm Sync_net.fault_plan
(** Compiles the schedule once: the round each process crash-stops in,
    and the link events with each partition's group index. Each round
    keeps the events active in it; a delivery over a link they touch gets
    their fold, in schedule order, over the intact singleton delivery, and
    every other delivery is left alone. Deterministic for a fixed
    schedule. *)

(** {1 Asynchronous faults} *)

val async_filter :
  Bn_util.Prng.t -> drop:float -> dup:float -> 'm Async_net.fault_filter
(** Seeded per-delivery drop/duplicate filter for {!Async_net.run}.
    Raises [Invalid_argument] unless [drop, dup >= 0] and
    [drop +. dup <= 1]. *)

val async_plan :
  ?corrupt:(src:int -> dst:int -> 'm -> 'm) ->
  schedule ->
  'm Async_net.fault_filter
(** The asynchronous reading of a declarative schedule — rounds do not
    exist, so events apply by link: [Crash] silences every message its
    victim sends, [Drop]/[Corrupt] apply to every delivery on their
    (src, dst) link, and [Duplicate] fires once per link (Async_net
    re-enqueues copies as fresh messages, so an unconditional duplicate
    would loop forever). [Delay] and [Partition] are ignored here — give
    the schedule to {!async_scheduler} for their scheduling-pressure
    reading. The schedule is compiled once, when the plan is built, into
    the crashed processes and the dropped, corrupted and duplicated links.
    The filter carries the once-per-link memo, so build a fresh plan per
    {!Async_net.run}. *)

val async_scheduler : schedule -> 'm Async_net.scheduler
(** Starves messages matching the schedule's [Delay] links and
    [Partition] cross-group pairs while any other message is pending, FIFO
    otherwise; once only starved messages remain they are delivered FIFO,
    so every message is still eventually delivered — no-culprit events
    stay harmless on their own, mirroring partition healing in the
    synchronous reading. Deterministic (no randomness, no state). The
    schedule is compiled once into its delayed links and partition groups;
    a schedule with neither is {!Async_net.fifo}. *)

(** {1 Seed-deterministic random schedules} *)

type kind = KDrop | KDuplicate | KDelay | KCrash | KPartition | KCorrupt

type gen = {
  n : int;  (** processes 0..n-1 *)
  rounds : int;  (** fault events target rounds 1..rounds *)
  max_events : int;  (** 1..max_events events per schedule *)
  kinds : kind list;  (** allowed event kinds *)
  max_culprits : int;  (** blameable events confined to this many processes *)
}

val random_schedule : Bn_util.Prng.t -> gen -> schedule
(** Draw one schedule; a pure function of the generator state, so equal
    seeds give equal schedules. Raises [Invalid_argument] on empty
    [kinds] or non-positive [n]/[rounds]/[max_events]. *)

val crash_only : n:int -> rounds:int -> max_crashes:int -> gen
val omission : n:int -> rounds:int -> max_events:int -> max_culprits:int -> gen

val byzantine : n:int -> rounds:int -> max_events:int -> max_culprits:int -> gen
(** Every kind except partitions — omission faults plus message
    corruption, the sub-Byzantine behaviours a (k,t)-robust protocol must
    absorb from at most [max_culprits] processes. *)
