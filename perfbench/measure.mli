(** The benchmark's own arithmetic: how timed items become figures.

    Kept apart from the workloads so [test_measure.ml] can pin each rule
    on small hand-built inputs. *)

type outcome = {
  items : int;  (** units of work the timed call performed *)
  seconds : float;  (** wall time of the call, or the limit it was abandoned at *)
  ok : bool;  (** completed, and its output passed the check *)
}
(** One timed call into the library. *)

val rounds : per_second:float -> float -> int
(** [rounds ~per_second seconds]: how many rounds a run of [seconds]
    performs, at least 1. A run does a fixed amount of work, not work until
    a deadline: [per_second] is the rate the reference machine (2-vCPU Xeon)
    reached at the commit that defined the benchmark, so a run there lasts
    about [seconds], and a parent and a change always run the same inputs. *)

val items_per_s : outcome list -> float
(** Items of the [ok] outcomes per second of their own wall time. The
    time of failed outcomes — in particular the wait of an abandoned call,
    which the limit sets and not the program — stays off this clock.
    0.0 when nothing completed. *)

val median_rate : outcome list list -> float
(** The median over rounds of each round's {!items_per_s}: a round is a
    stretch of the run with the same mix of work (one solver-mix block, one
    fault-explore pass over its tasks), so a short stall on a shared
    machine moves one round, not the figure. *)

val attempted : outcome list -> int
(** Items over all outcomes. *)

val failed : outcome list -> int
(** Items of the outcomes that are not [ok]. *)

val latency : outcome -> float
(** The outcome's seconds, or [infinity] when it failed: a failed call lies
    beyond every completed one, whatever time it took. *)

val total : outcome list -> outcome
(** Several calls as one (a round): items and seconds summed, [ok] when
    every call is. *)

val scale : float -> outcome -> outcome
(** [scale speed o] is [o] with its seconds times [speed] ({!Clock.speed}):
    its time in reference seconds. *)

val percentile : ?min_beyond:int -> float -> float array -> float option
(** [percentile q xs] is the nearest-rank [q]-quantile (rank
    [ceil (q * n)], clamped to [1 .. n]) of the latencies [xs].
    [None] when fewer than [min_beyond] (default 10) samples lie beyond
    that rank: the quantile is not resolved at this sample count. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle two on even length).
    @raise Invalid_argument on the empty list. *)

exception Abandoned

val with_limit : float -> (unit -> 'a) -> 'a option
(** [with_limit s f] runs [f], abandoning it after [s] seconds of wall
    time: an [ITIMER_REAL] alarm whose [SIGALRM] handler raises
    {!Abandoned} at the callee's next poll point. [None] when abandoned.
    Only for work on the calling domain. *)
