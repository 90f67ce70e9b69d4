(** Toy cryptographic primitives for the simulated protocols.

    These are {e simulation-grade}: collision-resistant enough for test
    workloads and deliberately simple. The mediator results that rely on
    "cryptography and polynomially-bounded players" only need the
    {e functionality} of commitments and signatures inside the simulator —
    see DESIGN.md §3 on substitutions. *)

val hash : string -> int64
(** FNV-1a 64-bit with an extra avalanche round. *)

(** {1 Commitments and signatures}

    A commitment is [hash "commit|<value>|<nonce>"] and a signature
    [hash "sig|<secret>|<msg>"], the numbers spelled in decimal as
    [%d]/[%Ld] print them. Neither string is built: the prefix, each
    field's digits and the message are folded straight into the FNV-1a
    state, so a commitment allocates only the [int64] it returns, and
    its value is the same as hashing the formatted string. *)

val hash_ints : int list -> int64
(** Hash of a list of ints with unambiguous framing. *)

(** Hash-based commitments: [commit v nonce] binds to [(v, nonce)]. *)
module Commit : sig
  type t = int64

  val commit : value:int -> nonce:int -> t
  val verify : t -> value:int -> nonce:int -> bool
end

(** Identification-based signatures backed by per-signer secrets held by the
    simulator: unforgeable by construction for in-simulation adversaries
    that do not know the signing secret. *)
module Pki : sig
  type t
  type signature = int64

  val create : Bn_util.Prng.t -> n:int -> t
  (** Fresh key pairs for players [0 … n−1]. *)

  val of_secrets : int64 array -> t
  (** Keys whose signing secrets are given: player [i] signs with
      [secrets.(i)]. For fixed test vectors; {!create} draws them. *)

  val sign : t -> signer:int -> msg:string -> signature
  val verify : t -> signer:int -> msg:string -> signature -> bool

  val forge_attempt : Bn_util.Prng.t -> signature
  (** What an adversary without the key can do: a random tag. Verification
    succeeds with probability ≈ 2^−64. *)
end
