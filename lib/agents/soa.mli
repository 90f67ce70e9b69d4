(** Struct-of-arrays agent store for million-agent simulations.

    Boxed per-agent loops (the [Scrip] reference simulators, and the
    linear-scan Gnutella loop the tests keep as an oracle) top out around
    n ≈ 10³; the paper's §5 claims (scrip steady states, Gnutella free
    riding) are about n → ∞ populations. This module is the storage and
    sharding layer that makes n = 10⁶ interactive for the engines built
    on it, [Scrip_soa] and [Gnutella_soa] (the only Gnutella engine):
    each per-agent field
    lives in its own flat [Bigarray] column ({!F64}, {!I32}, {!I8} — no
    per-agent boxing, no GC scanning of agent state), the population is
    partitioned into contiguous {e shards} ({!part}), and cross-shard
    interactions accumulate into per-(src, dst) buffers ({!Exchange})
    that are flushed at batch boundaries in a fixed lexicographic order.

    The determinism contract mirrors {!Bn_util.Pool}: a simulation shard
    may read and write {e its own} agents' columns freely during a
    parallel phase and may post events to any destination shard; all
    cross-shard state changes happen in {!Exchange.flush}, which runs
    after the parallel barrier and replays events in (src, dst, posting
    order) — a schedule-independent order. Combined with per-shard
    {!Bn_util.Prng.split} streams, engine output is byte-identical at
    any [-j] for a fixed shard count.

    Bigarray access is confined by lint rule P004 to the flat numeric
    kernels; this module and the simulator kernels built on it
    ([Scrip_soa], [Gnutella_soa]) are on the allowance list. *)

(** {1 Shard partition} *)

type part
(** A balanced contiguous partition of agents [0 … n−1] into shards:
    shard sizes differ by at most one, and shard boundaries depend only
    on [(n, shards)] — never on the domain budget executing them. *)

val partition : n:int -> shards:int -> part
(** [partition ~n ~shards] clamps [shards] to [1 … max 1 n].
    @raise Invalid_argument if [n < 0] or [shards < 1]. *)

val n : part -> int
val shards : part -> int

val bounds : part -> int -> int * int
(** [bounds p s] is the half-open agent range [(lo, hi)] of shard [s]. *)

val shard_of : part -> int -> int
(** The shard owning agent [i]; O(1), consistent with {!bounds}. *)

(** {1 Columns}

    Fixed-length unboxed columns, one per agent field. Creation
    zero-fills. Reads/writes are bounds-checked ([get]/[set]) or not
    ([uget]/[uset] — for the shard-local hot loops whose indices are
    already confined to [bounds]).

    The column types are concrete and the {!F64}/{!I8} accessors are
    [external] Bigarray primitives: at a call site that knows the
    element kind the compiler emits a raw load or store, with nothing
    boxed and no call — also across the [-opaque] library boundary of
    dune's dev profile, which stops ordinary functions from being
    inlined. The {!I32} accessors convert to OCaml [int], so they stay
    (allocation-free) functions. *)

module F64 : sig
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> t
  external length : t -> int = "%caml_ba_dim_1"
  external get : t -> int -> float = "%caml_ba_ref_1"
  external set : t -> int -> float -> unit = "%caml_ba_set_1"
  external uget : t -> int -> float = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
  val fill : t -> float -> unit
  val to_array : t -> float array
end

module I32 : sig
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> t
  external length : t -> int = "%caml_ba_dim_1"
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val uget : t -> int -> int
  val uset : t -> int -> int -> unit
  val fill : t -> int -> unit
  val to_array : t -> int array
end

module I8 : sig
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> t
  external length : t -> int = "%caml_ba_dim_1"
  external get : t -> int -> int = "%caml_ba_ref_1"
  external set : t -> int -> int -> unit = "%caml_ba_set_1"
  external uget : t -> int -> int = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"
  val fill : t -> int -> unit
end

(** {1 Cross-shard event exchange} *)

module Exchange : sig
  type t
  (** [shards²] append-only buffers of [(a, b)] integer event pairs.
      During a parallel phase, the shard that owns [src] is the only
      writer of every [(src, dst)] buffer, so posting needs no locks and
      no atomics; the buffers are drained after the barrier. *)

  val create : shards:int -> t

  val post : t -> src:int -> dst:int -> int -> int -> unit
  (** Append one event to the [(src, dst)] buffer. Safe to call
      concurrently from distinct [src] shards. Events are stored in
      32 bits (agent indices and small counts).
      @raise Invalid_argument if either value does not fit in 32 signed
      bits. *)

  val pending : t -> int
  (** Events currently buffered (all pairs). Call only between parallel
      phases. *)

  val flush : t -> (src:int -> dst:int -> int -> int -> unit) -> int
  (** Replay every buffered event — (src, dst) pairs in lexicographic
      order, events within a pair in posting order — then clear all
      buffers and return the number of events replayed. The replay order
      is a pure function of what was posted, never of the schedule that
      posted it. *)
end
