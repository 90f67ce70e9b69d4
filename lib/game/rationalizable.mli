(** Rationalizability (one of the §1 refinements the paper surveys).

    An action is {e never a best response} if no belief over the opponents'
    play justifies it; rationalizability iteratively deletes such actions.
    For two-player games, never-best-response coincides with strict
    dominance by a {e mixed} strategy, which we decide exactly by linear
    programming — strictly stronger than pure-strategy dominance
    ({!Dominance}). *)

val mixed_dominates : ?eps:float -> Normal_form.t -> player:int -> int -> Mixed.strategy option
(** [mixed_dominates g ~player a] returns a mixture over [player]'s other
    actions that strictly dominates action [a] against every pure opposing
    profile, if one exists (LP margin > [eps], default 1e-9).
    @raise Invalid_argument if [a] is not one of [player]'s actions. *)

val rationalizable : Normal_form.t -> int list array
(** Iterated elimination of mixed-dominated actions until a fixed point;
    returns the surviving original action indices per player. For
    two-player games this is exactly the set of rationalizable actions.
    Each pass removes at most one action per player, the last dominated
    one: the scan runs from a player's last surviving action down and
    stops at the first LP that finds a dominating mixture. *)

val is_dominance_solvable : Normal_form.t -> bool
(** Whether a single profile survives. *)
