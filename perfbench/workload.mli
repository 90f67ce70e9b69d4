(** What one workload run hands back to the driver in [main.ml]. *)

type report = {
  rounds : Measure.outcome list list;
      (** Every timed call, by round, in reference seconds: the items,
          [failed] and [items_per_s] ({!Measure.median_rate}). *)
  latency : float array;
      (** Reference seconds of the calls whose latency is reported as
          [latency_p50_ms]; [infinity] for a failed one. *)
  correct : bool;  (** Every output check passed. *)
  speed : float;
      (** Median over the run of the host's speed ({!Clock.speed}) by which
          the times in [rounds] and [latency] were scaled. *)
  figures : (string * float) list;
      (** Per-layer figures by [BENCHMARK.json] name (traced runs only). *)
}

val busy_s : string -> float
(** Inclusive seconds of every recorded span named [label] (the last
    element of its path), summed over all paths and domains. *)

val excl_s : ?parent:string -> string -> float
(** Exclusive (self) seconds of every span named [label] — only those
    directly under a span named [parent], when given. *)

val alloc_words : string -> float
(** Words allocated inside spans labelled [label] (GC probes). *)

val traced : (unit -> 'a) -> 'a
(** Run [f] with span recording and GC probes on, from a clean recorder;
    the recorded spans stay readable until the next [traced]. *)

(** A growable array of samples. *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val to_array : t -> float array
end
