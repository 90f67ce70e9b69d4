(** Learning dynamics: fictitious play and replicator dynamics.

    These provide approximate equilibria for games beyond the reach of the
    exact solvers and a dynamic account of how equilibrium beliefs could
    arise — one of the questions the paper raises about one-shot games.

    Both dynamics run on the flat payoff kernel ({!Nash.Kernel}) with
    incremental expected utilities: a player's deviation-EU vector is only
    recomputed on rounds where some opponent's mixture coordinate actually
    changed (bitwise), so converged phases cost a comparison per player per
    round. Traces are bitwise-identical to re-evaluating every expected
    utility through {!Mixed} each round, which the QCheck agreement suite
    pins against references kept in the tests. *)

type trace = {
  profile : Mixed.profile;  (** Final (empirical or population) profile. *)
  rounds : int;  (** Rounds actually executed (< requested on early stop). *)
  final_regret : float;  (** {!Nash.max_regret} of [profile]. *)
}

val fictitious_play :
  ?init:int array -> ?tol:float -> rounds:int -> Normal_form.t -> trace
(** Discrete fictitious play: each round every player best-responds to the
    empirical mixture of the others' past actions (ties broken by lowest
    index). [init] is the first round's profile (default all-0). The
    returned profile is the empirical action frequency per player.
    With [tol], stops after the first round whose empirical profile has
    {!Nash.max_regret} below [tol]; [trace.rounds] reports the rounds
    actually executed. *)

val replicator :
  ?init:Mixed.profile -> ?dt:float -> ?tol:float -> rounds:int -> Normal_form.t -> trace
(** Discrete-time replicator dynamics on each player's mixture; payoffs are
    shifted to keep mixtures valid. Default [init] is uniform, default [dt]
    is 0.1. With [tol], stops after the first round whose profile has
    {!Nash.max_regret} below [tol] (a replicator fixed point — e.g. an
    interior equilibrium start — stops on round 1). *)

val best_response_iteration :
  ?init:int array -> max_rounds:int -> Normal_form.t -> int array option
(** Iterated pure best response; [Some profile] if it reaches a pure Nash
    equilibrium fixed point within [max_rounds]. *)
