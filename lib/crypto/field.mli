(** Arithmetic in the prime field GF(p) with p = 2^31 − 1.

    Elements are OCaml ints in [0, p); the operations below take and return
    elements (use {!of_int} on anything else). Products of two elements fit
    in 62 bits, so native arithmetic never overflows on 64-bit platforms,
    and {!mul} reduces them by shift-and-add instead of a division. This is
    the algebra underlying secret sharing and the cheap-talk mediator
    protocols. *)

val p : int
(** The modulus, 2147483647 (a Mersenne prime). *)

val of_int : int -> int
(** Canonical representative (handles negatives). *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val neg : int -> int

val pow : int -> int -> int
(** [pow x e] for [e ≥ 0], by square-and-multiply. *)

val inv : int -> int
(** Multiplicative inverse, by the extended Euclidean algorithm.
    @raise Division_by_zero on 0. *)

val div : int -> int -> int

val random : Bn_util.Prng.t -> int
(** Uniform field element. *)

val random_nonzero : Bn_util.Prng.t -> int
