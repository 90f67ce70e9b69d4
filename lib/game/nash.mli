(** Nash equilibrium: checking and solving.

    The checker works on any finite n-player game; the solvers cover pure
    equilibria (any n) and mixed equilibria of two-player games via support
    enumeration. *)

val best_response_value : Normal_form.t -> Mixed.profile -> player:int -> float
(** Highest expected payoff [player] can get with any (pure, hence any)
    strategy while the others follow the profile. *)

val pure_best_responses : Normal_form.t -> Mixed.profile -> player:int -> int list
(** Pure actions attaining {!best_response_value} (up to 1e-9). *)

val regret : Normal_form.t -> Mixed.profile -> player:int -> float
(** [best_response_value − expected_payoff]; non-negative, 0 iff the
    player's strategy is a best response. *)

val max_regret : Normal_form.t -> Mixed.profile -> float
(** Maximum regret over all players. Evaluates on the flat kernels
    ([Kernel] for n ≠ 2); results are bitwise-identical to evaluating
    every expected utility through {!Mixed.expected_payoff}. *)

val is_nash : ?eps:float -> Normal_form.t -> Mixed.profile -> bool
(** Whether no player has a profitable unilateral deviation (within [eps],
    default 1e-9). *)

val is_pure_nash : ?eps:float -> Normal_form.t -> int array -> bool
(** Specialization of {!is_nash} to a pure profile. *)

val pure_equilibria : ?eps:float -> Normal_form.t -> int array list
(** All pure Nash equilibria, by exhaustive profile enumeration. *)

val support_enumeration_2p : ?eps:float -> Normal_form.t -> Mixed.profile list
(** All Nash equilibria of a two-player game found by equal-size support
    enumeration (complete for nondegenerate games), plus all pure
    equilibria. Duplicates are pruned.
    @raise Invalid_argument on games with ≠ 2 players. *)

val find_2p : ?eps:float -> Normal_form.t -> Mixed.profile option
(** First equilibrium from {!support_enumeration_2p}. *)

(** {1 Flat kernel}

    The n-player expected-utility kernel over the per-player payoff tables
    ({!Normal_form.Flat}), with caller-owned scratch. After [refresh k
    prof], {!Kernel.own_values} and {!Kernel.deviation_values} return
    exactly (bitwise) what {!Mixed.expected_payoff} returns on [prof] and
    on [prof] with the deviator's strategy replaced by a point mass: the
    same support products, in the same order, with the same [pr > 0.0]
    skips. *)
module Kernel : sig
  type t

  val make : Normal_form.t -> t
  (** Scratch for one game; reusable across profiles, not across
      domains. *)

  val refresh : t -> Mixed.profile -> unit
  (** Record the profile's supports (its [p > 0.0] coordinates). *)

  val own_values : t -> float array -> unit
  (** [own_values k out] sets [out.(i)] to player [i]'s expected payoff,
      for every player, in one sweep of the support product. *)

  val deviation_values : t -> int -> float array -> unit
  (** [deviation_values k i out] sets [out.(a)] to player [i]'s expected
      payoff for pure action [a] against the others' strategies, for every
      action, in one sweep of the opponents' support product. *)
end
