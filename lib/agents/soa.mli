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
    that are replayed at batch boundaries in a fixed lexicographic order.

    The determinism contract mirrors {!Bn_util.Pool}: a simulation shard
    may read and write {e its own} agents' columns freely during a
    parallel phase and may post events to any destination shard; all
    cross-shard state changes happen in the engine's replay of the
    {!Exchange} buffers, which runs after the parallel barrier and reads
    events in (src, dst, posting order) — a schedule-independent order.
    Combined with per-shard {!Bn_util.Prng.split} streams, engine output
    is byte-identical at any [-j] for a fixed shard count.

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
(** The shard owning agent [i]; O(1) and branch-free past the range
    check, consistent with {!bounds}. *)

(** {1 Columns}

    Fixed-length unboxed columns, one per agent field. Creation
    zero-fills. Reads/writes are bounds-checked ([get]/[set]) or not
    ([uget]/[uset] — for the shard-local hot loops whose indices are
    already confined to [bounds]).

    The column types are concrete and every accessor is an [external]
    Bigarray primitive. dune's dev profile compiles each library with
    [-opaque], which stops ordinary functions from being inlined across
    the library boundary: an accessor written as a function is a call
    per element, and a generic one boxes what it moves. A primitive is
    expanded at each call site, where the element kind is known, into a
    raw load or store with nothing boxed and no call. So {!I32} reads
    and writes [int32], and the caller converts at the call site
    ([Int32.to_int (I32.uget col i)], [I32.uset col i (Int32.of_int x)]);
    both conversions are primitives too. *)

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
  external get : t -> int -> int32 = "%caml_ba_ref_1"
  external set : t -> int -> int32 -> unit = "%caml_ba_set_1"
  external uget : t -> int -> int32 = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int32 -> unit = "%caml_ba_unsafe_set_1"
  val fill : t -> int32 -> unit
  val to_array : t -> int array
  (** The column as OCaml [int]s. *)
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
  type buf = private {
    mutable data : I32.t;
    mutable len : int;
  }
  (** One append-only [(src, dst)] buffer: [data.{0} … data.{len − 1}]
      holds its events in posting order, event [k] being the pair
      [(data.{2k}, data.{2k+1})]; [data] may be longer than [len]. *)

  type t = private {
    shards : int;
    buffers : buf array;
  }
  (** [shards²] buffers of [(a, b)] integer event pairs, the [(src, dst)]
      one at [buffers.((src * shards) + dst)]. During a parallel phase,
      the shard that owns [src] is the only writer of every [(src, dst)]
      buffer, so posting needs no locks and no atomics.

      After the barrier the engine replays the buffers itself, reading
      this view: [buffers] in index order, which is (src, dst)
      lexicographic order, and each buffer's events in posting order.
      That order is a pure function of what was posted, never of the
      schedule that posted it. The view is read-only: {!post} is the
      one writer and {!clear} the one reset. The replay is a plain loop
      in the engine, so the per-event gates compile inline instead of
      costing a closure call per event. *)

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

  val clear : t -> unit
  (** Empty every buffer, keeping its capacity. Call after the replay,
      between parallel phases. *)
end
