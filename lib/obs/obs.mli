(** Deterministic tracing & metrics ([Bn_obs]).

    Three instruments, one contract:

    - {b counters} ({!counter}, {!add}): integers in a global registry,
      sharded per domain — a bump is a plain increment of a
      domain-local cell (no atomics, no locks) and a read sums the
      shards, exact once the writing domains have been joined (which
      Pool does before returning). A {!Det} counter is a pure function
      of the workload — identical at any [-j] and across same-seed
      reruns — and is asserted by tests and CI. A {!Volatile} counter
      may depend on scheduling (early-exit scans, per-chunk work) and
      is exported in a separate section, never asserted.
    - {b spans} ({!span}, {!instant}): nested begin/end events with
      wall-clock timestamps and the recording domain's id, collected
      per-domain through a DLS sink (no locks on the hot path). Timing
      is nondeterministic by nature and {e export-only}: trace data
      never feeds back into computation.
    - {b exporters}: Chrome trace-event JSON ({!Export.chrome_trace}),
      a flat metrics snapshot ({!Export.metrics_json}) whose
      ["counters"] section is the byte-comparable determinism artifact,
      and a human {!summary} table.

    With tracing off (the default) a span costs one atomic load, so
    instrumented code keeps its output and (within noise) its speed. *)

val now_us : unit -> float
(** Wall-clock microseconds ([Unix.gettimeofday] scaled). Export-only. *)

val cpu_us : unit -> float
(** Processor time used by the whole process, user plus system, in
    microseconds ([Sys.time] scaled). For measuring only, like
    {!now_us}: unlike wall time, it does not count time the host gives
    to other processes. *)

(** {1 Switches} *)

val set_tracing : bool -> unit
(** Enable/disable span recording (counters are always on). *)

val tracing_enabled : unit -> bool

val set_progress : bool -> unit
(** Enable the per-experiment stderr progress line in
    [Experiments.run_all] (read there, not here). *)

val progress_enabled : unit -> bool

val set_timing : bool -> unit
(** Enable wall-clock sketch observations ({!timed}). Off by default so
    uninstrumented runs pay one atomic load per [timed] call site.
    [Det]-kind sketches are always on, like counters. *)

val timing_enabled : unit -> bool

val set_gc_probes : bool -> unit
(** Enable GC deltas at span boundaries (implies a useful result only
    when tracing is also on). Off by default. *)

val gc_probes_enabled : unit -> bool

(** {1 Counters and histograms} *)

type kind = Det  (** deterministic: asserted across [-j] and reruns *)
          | Volatile  (** schedule-dependent: export-only *)

type counter
type hist

val counter : ?kind:kind -> string -> counter
(** Find-or-create by name (idempotent; the first call fixes the kind).
    Declare counters at module-init time, off the hot path. *)

val add : counter -> int -> unit
val incr : counter -> unit

val add2 : counter -> int -> counter -> int -> unit
(** [add2 c1 n1 c2 n2] = [add c1 n1; add c2 n2] with a single
    domain-local lookup — for hot paths that flush two tallies at once. *)

val value : counter -> int
(** Sum of the per-domain shards; exact once the writes are ordered
    before the read (a [Pool] call returns only after all its chunks). *)

val shard_count : unit -> int
(** Counter and sketch shards in the registry: one per domain that has
    ever recorded. Pool workers never exit, so repeated pool calls add
    none. *)

val hist : ?kind:kind -> string -> hist
(** Power-of-two bucket histogram (bucket boundaries at 2^i). *)

val observe : hist -> int -> unit

val counters_snapshot : ?kind:kind -> unit -> (string * int) list
(** All (or one kind's) counter values, sorted by name. *)

(** {1 Quantile sketches}

    Mergeable log-bucketed sketches (HDR-style: exact below 64, then 32
    sub-buckets per power of two, relative error <= 1/64 on bucket
    representatives). Observations are plain bumps of a domain-local
    row — no atomics — and a snapshot sums the shards in fixed
    registration order, so a {!Det} sketch is byte-identical at any
    [-j] and across same-seed reruns. Wall-clock sketches must be
    {!Volatile} and are only populated when {!set_timing} is on. *)

type sketch

val sketch : ?kind:kind -> string -> sketch
(** Find-or-create by name (idempotent; the first call fixes the kind). *)

val observe_sk : sketch -> int -> unit
(** Record one non-negative value (negatives clamp to 0). *)

val timed : sketch -> (unit -> 'a) -> 'a
(** [timed sk f] runs [f] and, when {!timing_enabled}, records its
    wall-clock duration in nanoseconds into [sk]. One atomic load when
    timing is off. Exception-safe. *)

module Sketch : sig
  type snap = { total : int; cells : (int * int) list }
  (** Total observation count plus sorted [(bucket index, count)] cells. *)

  val empty : snap
  val of_values : int list -> snap
  val snapshot : sketch -> snap
  val merge : snap -> snap -> snap
  (** Associative and commutative; cells union with counts added. *)

  val count : snap -> int

  val quantile : snap -> float -> int
  (** Nearest-rank quantile (rank [ceil (q*n)] clamped to [1..n]),
      reported as the bucket representative (midpoint). 0 when empty. *)

  val quantiles : snap -> (string * int) list
  (** [p50], [p90], [p99], [p999]. *)
end

val sketches_snapshot : ?kind:kind -> unit -> (string * Sketch.snap) list
(** All (or one kind's) sketches, sorted by name. *)

(** {1 Spans} *)

type arg = I of int | S of string | F of float
type phase = Begin | End | Instant

type event = {
  ename : string;
  ph : phase;
  ts_us : float;
  tid : int;
  args : (string * arg) list;
}

val span : ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording begin/end events around it when
    tracing is enabled ([args] is only evaluated then). Exception-safe:
    the end event is recorded even if [f] raises. *)

val instant : ?args:(unit -> (string * arg) list) -> string -> unit
(** A point event (e.g. a fault injection) on the trace timeline. *)

val span_count : unit -> int
(** Spans recorded since the last {!reset} (0 when tracing is off). *)

val events : unit -> event list
(** Every recorded event, grouped by domain in registration order and
    chronological within each domain. *)

val reset : unit -> unit
(** Zero every counter/histogram/sketch, drop all recorded events
    and GC probe data. *)

val gc_snapshot : unit -> (string * (int * int * int)) list
(** Per span label, inclusive [(alloc words, major collections, minor
    collections)] deltas captured while {!set_gc_probes} (and tracing)
    were on; sorted by label. Words are those allocated by the domain
    running the span, while it ran. *)

(** {1 Exporters} *)

module Export : sig
  val chrome_trace : unit -> string
  (** [chrome://tracing] / Perfetto JSON ("traceEvents" array);
      timestamps in microseconds relative to the earliest event. *)

  val metrics_json : unit -> string
  (** Flat snapshot (schema [beyond-nash-metrics/2]): ["counters"] and
      ["sketches"] (Det, sorted — the byte-comparable sections),
      ["volatile"], ["sketches_volatile"], ["histograms"],
      ["gc"], ["spans"]. *)
end

val summary : ?max_rows:int -> unit -> string
(** Human-readable table: aggregated span tree (calls, total wall ms),
    the busiest counters, and quantiles for every non-empty histogram
    and sketch. *)

(** {1 Span-tree profiler} *)

module Profile : sig
  type row = { path : string list; calls : int; incl_us : float; excl_us : float }
  (** One aggregated span path: call count, inclusive wall time, and
      exclusive (self) time with direct children subtracted. *)

  val rows : unit -> row list
  (** Aggregated over all domains, sorted by path. *)

  val table : ?max_rows:int -> unit -> string
  (** The [--profile] table: indented span tree with calls / incl ms /
      excl ms, plus per-region GC deltas when probes were on. *)

  val folded : unit -> string
  (** Collapsed-stack export ([a;b;c <excl_us>] per line) for
      flamegraph.pl / speedscope; zero-weight rows dropped. *)
end

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

(** {1 JSON validation} *)

module Json : sig
  val validate : string -> bool
  (** [true] iff the string is one well-formed RFC 8259 JSON value.
      Used by the test suite and CI to validate exporter output without
      an external JSON dependency. *)

  (** Parsed JSON; object members keep file order. *)
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of value list
    | Obj of (string * value) list

  val parse : string -> value option
  (** Full RFC 8259 parse (escapes decoded, [\uXXXX] as UTF-8);
      [None] on malformed input. *)

  val member : string -> value -> value option
  (** First member of that name when the value is an object. *)
end
