(** Free riding in peer-to-peer file sharing (paper §2's Gnutella
    discussion; Adar–Huberman 2000).

    Whether a user can download depends only on {e others} sharing, and
    sharing has costs (bandwidth, lawsuits), so the dominant strategy of a
    standard-utility user is to share nothing — yet ~30% of Gnutella hosts
    shared, and the top 1% of hosts served ~50% of responses. The paper's
    reading: sharing hosts plausibly have non-standard utilities (a "kick"
    from providing the music).

    Two views are provided: a small analytic normal-form game (free riding
    is dominance-solvable for standard players) and the population model
    with heterogeneous, Zipf-distributed kicks calibrated to reproduce the
    Adar–Huberman shape. This module holds the game, the model's types,
    the kick sampler and the load statistics; the population simulation
    itself is {!Gnutella_soa.simulate}. *)

type params = {
  users : int;
  cost : float;  (** Cost of sharing. *)
  kick_scale : float;  (** Scale of the Zipf-distributed kick. *)
  zipf_exponent : float;  (** Tail exponent (≈ 1.2 reproduces the shape). *)
  queries : int;  (** Queries routed in the simulation. *)
}

val default_params : users:int -> params

type stats = {
  sharers : int;
  free_rider_fraction : float;
  top1_response_share : float;  (** Fraction of responses served by the top 1% of hosts. *)
  top10_response_share : float;
  gini_load : float;  (** Inequality of the serving load. *)
}

val zipf_sample : Bn_util.Prng.t -> scale:float -> exponent:float -> float
(** One heavy-tailed kick: [scale / u^(1/exponent)] for uniform [u]. *)

val stats_of_load : users:int -> sharers:int -> served:int array -> stats
(** Load-concentration statistics (top-1% / top-10% response share, Gini)
    from raw per-host serve counts — the back end of
    {!Gnutella_soa.simulate}. *)

val sharing_game :
  n:int -> cost:float -> kicks:float array -> download_value:float ->
  Bn_game.Normal_form.t
(** The analytic n-player game: action 1 = share. Payoff of [i]:
    [download_value · 1{someone else shares} − cost·a_i + kicks.(i)·a_i].
    For a player with [kicks.(i) < cost], not sharing strictly dominates —
    so with homogeneous standard utilities the unique equilibrium is
    nobody-shares, the free-riding paradox. *)

val free_riding_equilibrium : n:int -> cost:float -> download_value:float -> bool
(** Whether all-free-ride is the unique outcome of iterated strict
    dominance for standard (kick = 0) users. *)
