(** Computational Bayesian games and computational Nash equilibrium.

    Each player picks a machine from a finite candidate space; its type is
    the machine's input; utility depends on the type profile, action
    profile {e and the complexity profile} — so "thinking harder" can cost,
    and a player may care about others' complexities too (paper §3).

    A {e computational Nash equilibrium} is a profile of machines (a pure
    choice — randomness lives inside machines, where it can be charged such
    that no player can profitably switch to another machine in its space.
    Unlike classical finite games, such an equilibrium may not exist:
    {!Comp_roshambo} exhibits the paper's Example 3.3. *)

type t

val create :
  machines:Machine.t array array ->
  num_types:int array ->
  prior:int array Bn_util.Dist.t ->
  utility:
    (player:int ->
    types:int array ->
    acts:int array ->
    complexities:float array ->
    float) ->
  t
(** [machines.(i)] is player [i]'s machine space. The prior ranges over
    type profiles, as in {!Bn_bayesian.Bayesian}.
    @raise Invalid_argument on arity errors, an empty machine space, or a
    prior whose support holds a profile of the wrong length
    (["Machine_game.create: prior profile arity"]) or a type outside
    [0 … num_types.(i) − 1] (["Machine_game.create: prior type out of
    range"]). *)

val simple :
  machines:Machine.t array array ->
  base:(int array -> float array) ->
  charge:float array ->
  t
(** Common case: one type per player (complete information), utility =
    base-game payoff of the action profile − [charge.(i)] ×
    own complexity. *)

val n_players : t -> int
val machine_space : t -> player:int -> Machine.t array

val expected_utility : t -> choice:int array -> player:int -> float
(** Exact expectation over the prior and all machines' internal
    randomization. [choice.(i)] indexes player [i]'s machine space. At a
    type profile where every machine outputs a point mass the action
    product is not built: the term is [0.0 +. 1.0 *. u], exactly what the
    expectation over the one-point product gives. *)

val best_deviation : t -> choice:int array -> player:int -> (int * float) option
(** The best alternative machine for [player] and its utility, if it
    strictly improves on the current choice (by more than 1e-9). *)

val is_nash : ?eps:float -> t -> choice:int array -> bool

val nash_equilibria : t -> int array list
(** All pure machine-profile equilibria, by exhaustive search, in
    row-major profile order. Reads one table holding each
    {!expected_utility} per (machine profile, player), so every utility is
    evaluated once; the verdicts are {!is_nash}'s. *)

val nonexistence_certificate : t -> (int array * int * int) list option
(** If the game has {e no} computational Nash equilibrium, the full
    certificate: for every machine profile, a player and a profitable
    deviation (the first player with one, and {!best_deviation}'s
    machine). [None] if some equilibrium exists. Reads the same table as
    {!nash_equilibria}. *)

val to_normal_form : t -> Bn_game.Normal_form.t
(** The induced game over machine indices (payoffs = expected utilities).
    Note: a {e mixed} Nash equilibrium of this normal form is not a
    computational equilibrium — mixing over machines is free there, which
    is exactly what the complexity charges are meant to forbid. *)
