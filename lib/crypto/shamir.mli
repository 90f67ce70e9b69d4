(** Shamir secret sharing over GF(p), with robust reconstruction.

    A secret [s] is shared among players 1…n by sampling a degree-[t]
    polynomial [f] with [f(0) = s] and giving player [i] the share
    [(i, f(i))]. Any [t+1] shares reconstruct; [t] shares reveal nothing.
    [robust_reconstruct] additionally tolerates corrupted shares via
    Berlekamp–Welch decoding — the mechanism that lets the cheap-talk
    mediator protocol survive Byzantine participants (paper §2). *)

type share = { x : int; y : int }

val share :
  Bn_util.Prng.t -> secret:int -> threshold:int -> n:int -> share list
(** [share rng ~secret ~threshold ~n] produces [n] shares such that any
    [threshold + 1] reconstruct the secret (polynomial degree =
    [threshold]). Requires [0 ≤ threshold < n].  *)

val reconstruct : share list -> int
(** Lagrange reconstruction assuming all shares are correct (uses all given
    shares; they must be consistent and ≥ threshold+1 of them). *)

val robust_reconstruct :
  degree:int -> max_errors:int -> share list -> int option
(** Berlekamp–Welch: reconstructs the degree-[degree] polynomial's secret
    from [n] shares of which up to [max_errors] may be arbitrarily wrong;
    requires [n ≥ degree + 2·max_errors + 1]. [None] if decoding fails
    (more errors than the bound, or two shares at one x that disagree when
    [max_errors = 0]); exact repeats of a share are harmless. Share
    coordinates are field elements.

    When the x values are distinct and every share lies on the polynomial
    through the first [degree + 1] shares, that polynomial's secret is
    returned without setting up the linear system: it is the answer the
    system would give (see DESIGN.md §10).
    @raise Invalid_argument if [degree] or [max_errors] is negative. *)

val verify_consistent : degree:int -> share list -> bool
(** Whether the given shares all lie on one polynomial of the stated
    degree. *)
