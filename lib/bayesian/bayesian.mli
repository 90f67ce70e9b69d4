(** Normal-form Bayesian games (paper §2).

    Each player has a finite type set with a commonly-known joint prior and
    chooses an action as a function of its type; utilities depend on the
    type profile and the action profile. This is the underlying-game format
    of the mediator characterization: in Byzantine agreement, the general's
    type is its initial preference. *)

type t

val create :
  ?player_names:string array ->
  ?type_names:string array array ->
  ?action_names:string array array ->
  num_types:int array ->
  actions:int array ->
  prior:int array Bn_util.Dist.t ->
  (types:int array -> acts:int array -> float array) ->
  t
(** [create ~num_types ~actions ~prior u]. The prior is over type profiles
    (arrays of length n with [0 ≤ tp.(i) < num_types.(i)]); [u] gives the
    payoff vector per (type profile, action profile).
    @raise Invalid_argument on arity errors or a prior whose support
    contains an out-of-range type profile. *)

val n_players : t -> int
val num_types : t -> int -> int
val num_actions : t -> int -> int
val prior : t -> int array Bn_util.Dist.t
val utility : t -> types:int array -> acts:int array -> float array

(** {1 Strategies} *)

type pure_strategy = int array
(** Action per type: [s.(theta)] is the action played with type [theta]. *)

type behavioral = float array array
(** Mixed action per type: [b.(theta)] is a distribution over actions. *)

val pure_to_behavioral : t -> player:int -> pure_strategy -> behavioral

val pure_strategies : t -> player:int -> pure_strategy list
(** All type-contingent pure strategies of a player. *)

val ex_ante_utility : t -> behavioral array -> float array
(** Expected payoffs before types are drawn. *)

val interim_utility : t -> behavioral array -> player:int -> ptype:int -> float
(** Expected payoff of [player] given its realized type, under the prior's
    conditional over other types.
    @raise Invalid_argument if the type has prior probability 0. *)

val outcome_dist :
  t -> behavioral array -> (int array * int array) Bn_util.Dist.t
(** Joint distribution over (type profile, action profile) — the object
    that cheap talk must reproduce to "implement" a mediator. *)

val is_bayes_nash : ?eps:float -> t -> behavioral array -> bool
(** Interim Bayes–Nash check: no player has a type (of positive prior
    probability) at which some action improves its conditional payoff. *)

val pure_bayes_nash : ?eps:float -> t -> pure_strategy array list
(** All pure Bayes–Nash equilibria by exhaustive enumeration, with
    {!is_bayes_nash}'s verdicts. Interim utilities come from a table filled
    on first read, keyed by (player, type, action, the other players' pure
    strategies): on a pure profile nothing else moves a player's interim
    utility. Each entry is one fold over the conditional prior, in its
    order, giving the value {!interim_utility} gives.
    @raise Invalid_argument as {!interim_utility} does, when a type in the
    prior's support has conditional mass 0. *)

val agent_form : t -> Bn_game.Normal_form.t * (int * int) array
(** The agent-form normal game: one agent per (player, type) pair with
    positive marginal probability, paid its interim utility. Returns the
    game and the (player, type) of each agent. A profile is Bayes–Nash in
    [t] iff the corresponding agent-form profile is Nash. *)
