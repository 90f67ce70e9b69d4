(** Million-agent scrip simulator on the sharded struct-of-arrays store.

    {!Scrip.simulate} replays the KFH dynamics one uniformly random
    agent at a time — inherently sequential. This engine targets the
    paper's n → ∞ regime (≥ 10⁶ agents at interactive step rates) with
    {e batched} dynamics: one {!step} gives every shard one service
    opportunity per local agent. Each shard draws (chooser, probe) pairs
    from its own {!Bn_util.Prng.split} stream — both draws independent
    of the evolving balances — and posts them into per-(src, dst)
    buffers ({!Bn_agents.Soa.Exchange}); after the parallel barrier the
    buffers are replayed sequentially in a fixed (src, dst, posting
    order), with the balance and willingness gates evaluated at
    execution time. Output is byte-identical for every [?jobs] at a
    fixed shard count, and {!Bn_obs} Det counters (requests, cross-shard
    events, flushes) are asserted identical across job counts and
    reruns.

    A request by agent [c] probes one uniformly random other agent [v]:
    if [v] is willing (standard below threshold, or hoarder/altruist)
    the service happens and one scrip unit moves [c → v] (unless [v] is
    an altruist); an unwilling probe counts as [unserved]. Conditioned
    on being served, the volunteer is uniform among willing agents —
    the same conditional law as KFH. Because the pairs are
    state-independent and the gates execute in the replay, each batch is
    an exact sequential run of this probe chain, which is doubly
    stochastic on the fixed-money configuration slab: its stationary law
    is uniform there, and the money-holding marginal is the
    {!Steady_state.max_entropy} distribution. That analytic law — not
    {!Scrip.simulate}, whose round structure differs — is the oracle
    this engine is verified against (chi-square / total variation, E17
    and test/test_scrip_p2p.ml). *)

type t
(** Live population state: scrip / kind / threshold / utility columns,
    the shard partition, the exchange buffers, and the step counter. *)

type soa_stats = {
  n : int;
  shards : int;
  steps : int;
  requests : int;
  satisfied : int;
  starved : int;
  unserved : int;  (** [requests = satisfied + starved + unserved]. *)
  cross_shard : int;  (** Requests that crossed a shard boundary. *)
  flushes : int;  (** Batch flushes (one per step). *)
  total_scrip : int;  (** Conserved: equals the initial deal. *)
  dist : int array;
      (** Money histogram: [dist.(j)] agents hold [j] units, for
          [j <= k_max]; the final cell counts balances above [k_max]
          (hoarder accumulation). Length [k_max + 2]. *)
  mean_balance : float;
  avg_utility : float array;
      (** Mean total utility by kind: standard, hoarder, altruist
          (0 where the population has no agents of that kind). *)
}

val create :
  ?shards:int ->
  seed:int ->
  params:Scrip.params ->
  kind_of:(int -> Scrip.kind) ->
  money_per_agent:float ->
  unit ->
  t
(** Build the store: [params.n] agents ([>= 2]), kinds tabulated from
    [kind_of], [floor (money_per_agent · n)] units dealt round-robin.
    [shards] defaults to 64 (clamped to [n]); the shard count is part of
    the sampled process — runs with different shard counts are
    different (equally valid) samples, runs with different [jobs] are
    the same sample. [params.rounds] is ignored; stepping is explicit. *)

val step : ?pool:Bn_util.Pool.t -> t -> unit
(** One batched sweep: every shard posts one request per local agent
    slot (chooser and probe both drawn uniformly over the whole
    population — shard-restricted choosers would bias the stationary
    law), then the buffers are replayed sequentially. Deterministic for
    any pool size. *)

val skip_self : chooser:int -> int -> int
(** [skip_self ~chooser v] is the [v]-th agent other than [chooser]: [v]
    below [chooser], [v + 1] from it on. It turns a probe draw in
    [\[0, n − 2\]] into one of the [n − 1] other agents, without a
    branch on [v >= chooser]. *)

val steps_done : t -> int

val stats : t -> soa_stats
(** Snapshot of tallies and the money histogram. Call between steps. *)

val run :
  ?jobs:int ->
  ?shards:int ->
  seed:int ->
  steps:int ->
  params:Scrip.params ->
  kind_of:(int -> Scrip.kind) ->
  money_per_agent:float ->
  unit ->
  soa_stats
(** [create], [step] × [steps] on a [jobs]-domain pool, [stats]. *)

val goodness_of_fit : soa_stats -> threshold:int -> money_per_agent:float -> Steady_state.gof
(** Chi-square / total-variation fit of the empirical money histogram
    against {!Steady_state.max_entropy} (the analytic distribution is
    padded with a zero-probability overflow cell to match [dist]). Only
    meaningful for all-standard populations with a common threshold. *)
