(** Mixed strategies and mixed-strategy profiles.

    A mixed strategy for player [i] is a probability vector over
    [0 … num_actions i − 1]; a profile is one strategy per player. Expected
    utilities are computed exactly by summing over the (finite) profile
    space. *)

type strategy = float array
type profile = strategy array

val pure : num_actions:int -> int -> strategy
(** Point mass on one action. *)

val uniform : int -> strategy
(** Uniform over [num_actions] actions. *)

val of_weights : float array -> strategy
(** Normalize non-negative weights with positive total. *)

val is_valid : ?eps:float -> strategy -> bool
(** Non-negative entries summing to 1 (within [eps]). *)

val pure_profile : Normal_form.t -> int array -> profile
(** Degenerate profile playing the given pure profile. *)

val uniform_profile : Normal_form.t -> profile
(** Every player uniform. *)

val point_mass : strategy -> int option
(** [Some a] iff the strategy is {e exactly} the point mass on [a] (one
    entry equal to 1.0, the rest 0.0). Strategies built by {!pure} always
    qualify; numerically-almost-pure strategies never do. *)

val pure_actions : profile -> int array option
(** The pure profile a fully degenerate mixed profile plays, if every
    strategy is a {!point_mass}. This is the guard for the O(1)
    table-lookup fast path in {!expected_payoff} and the robustness
    deviation scanner. *)

val expected_payoff : Normal_form.t -> profile -> int -> float
(** Exact expected payoff of a player under independent mixing.

    Cost: O(1) (one table read) when the profile is fully pure, otherwise
    O(∏ᵢ |supp(σᵢ)|) — the support product, not the full action grid. The
    result is bit-identical to {!expected_payoff_naive}: same products,
    same additions, same order. *)

val expected_payoff_naive : Normal_form.t -> profile -> int -> float
(** Reference implementation: the O(∏ᵢ aᵢ) full scan over every pure
    profile. Kept for agreement testing against {!expected_payoff}; do not
    use in hot paths. *)

val expected_payoffs : Normal_form.t -> profile -> float array
(** Expected payoff of every player. *)

val support : ?eps:float -> strategy -> int list
(** Actions with probability above [eps]. *)

val outcome_dist : Normal_form.t -> profile -> int array Bn_util.Dist.t
(** Distribution over pure action profiles induced by independent mixing.
    Enumerates only the support product, in row-major order. *)

val equal : ?eps:float -> profile -> profile -> bool
(** Pointwise comparison. *)

val pp_strategy : Format.formatter -> strategy -> unit
val pp_profile : Format.formatter -> profile -> unit
