(** Exponential Information Gathering (EIG) Byzantine agreement.

    The classic [t+1]-round protocol that reaches agreement among [n]
    processes despite up to [t] Byzantine faults whenever [n > 3t]
    (Pease–Shostak–Lamport; presentation follows Lynch). Each process
    maintains a tree of relayed claims indexed by paths of distinct process
    ids; after [t+1] rounds it decides by recursive majority with a default
    for ties.

    The paper (§2) uses Byzantine agreement both as the canonical
    fault-tolerance problem and as the source of the lower bounds in the
    mediator characterization (the n ≤ 3k+3t impossibility {e is} the
    t < n/3 bound). *)

type msg = { level : int; claims : int array }
(** Round-[r] payload: claims about the paths of [level = r − 1] relayers,
    as flat [(code, value)] pairs. A path [j1; …; jl] of ids in 0..n−1 is
    packed as its base-n code ((j1·n + j2)·n + …)·n + jl, so a code is
    always in [0, n^level) and names only in-range ids; honest messages
    list their claims by ascending code (the lexicographic order of the
    paths). A receiver ignores a message whose [level] is not the round's,
    and any claim whose code is negative, at least n^level, or whose path
    already holds the sender; the first claim for a path wins. *)

type state

val protocol :
  n:int -> t:int -> values:int array -> default:int ->
  (state, msg, int) Bn_dist_sim.Sync_net.protocol
(** EIG for processes with initial [values] (binary or small ints); decides
    after [t+1] rounds. *)

val run :
  ?adversary:msg Bn_dist_sim.Sync_net.adversary ->
  ?faults:msg Bn_dist_sim.Sync_net.fault_plan ->
  n:int -> t:int -> values:int array -> default:int -> unit ->
  int Bn_dist_sim.Sync_net.result
(** Convenience: run the protocol for exactly [t+1] rounds, optionally
    under an environment fault plan (see {!Bn_dist_sim.Faults}). *)

val lying_adversary : n:int -> corrupted:int list -> claim:int -> msg Bn_dist_sim.Sync_net.adversary
(** Adversary whose corrupted processes claim, at every level, that
    everyone said [claim]. Breaks validity at [n = 3t] (e.g. n=3, t=1 with
    honest values all ≠ claim) but is harmless for [n > 3t]. *)

val equivocating_adversary :
  n:int -> corrupted:int list -> Bn_util.Prng.t -> msg Bn_dist_sim.Sync_net.adversary
(** Adversary sending independently random claims to every recipient at
    every level — used for randomized robustness sweeps. *)

val agreement : int Bn_dist_sim.Sync_net.result -> bool
(** All decided (non-corrupt) outputs equal. *)

val validity : honest_values:int list -> int Bn_dist_sim.Sync_net.result -> bool
(** If all honest processes started with the same value [v], every decided
    output is [v]; vacuously true otherwise. *)
