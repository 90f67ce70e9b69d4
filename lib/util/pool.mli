(** Deterministic multicore execution (OCaml 5 domains).

    A [Pool.t] is a chunked, work-stealing-free parallel runner: every
    operation partitions its input into contiguous index ranges (chunks)
    that depend only on the input length and the pool's budget, and
    writes each result into the slot of the index it came from. Because
    the mapping from input index to result slot is fixed — no queues, no
    stealing, no completion-order effects — every
    operation is {e bit-identical regardless of the number of domains},
    provided the task functions are pure (or, for {!iter_grid}, touch
    disjoint state per index). Combined with {!Prng.split}'s indexed
    streams, this is the repo-wide contract that lets the experiment
    harness parallelize Monte Carlo loops and coalition enumeration without
    ever perturbing a paper table (verified by [test/test_determinism.ml]).

    Every pool shares one process-wide set of worker domains. A worker is
    started at the first call that needs it, never by {!create}, and then
    stays: between calls it is parked on a condition variable. The set
    never grows past [Domain.recommended_domain_count () - 1] workers,
    whatever budget a pool asks for, because every parked domain takes
    part in each stop-the-world minor collection. A call's chunks are
    claimed in index order by the caller and by whichever workers are
    idle, so a budget above the worker count (or a call nested inside
    another call's chunk) runs its remaining chunks on the caller instead
    of waiting. Which domain ran a chunk never changes the result. *)

type t
(** A parallelism budget: how many chunks an operation may split into. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the sanctioned way for drivers
    (bin, bench) to pick a default [-j]; [Domain] access is otherwise
    confined to this module and {!Bn_obs.Obs} (lint rule P002). *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] builds a pool whose operations split their
    input into at most [domains] chunks, run on the calling domain and on
    idle workers. Defaults to [Domain.recommended_domain_count ()].
    [domains < 1] is clamped to 1. Starts no domain. *)

val serial : t
(** The single-domain pool: every operation degenerates to a plain loop on
    the calling domain. *)

val domains : t -> int
(** The domain budget of the pool: how many chunks an operation splits
    its input into (at most one per item). *)

val workers : unit -> int
(** Worker domains started so far in this process (all pools). *)

val idle_workers : unit -> int
(** Worker domains parked now, waiting for a call. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs] computed in up to [domains pool]
    chunks. Order is preserved; for pure [f] the result is identical to
    the serial map for every pool size. Exceptions raised by [f] are
    re-raised in the caller once every chunk has finished: if several
    chunks raise, the lowest-numbered failing chunk after the first wins,
    then the first chunk's. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}. *)

val map_array_steal : t -> ('a -> 'b) -> 'a array -> 'b array
(** Work-stealing {!map_array}: same contiguous ranges, but a worker that
    finishes its own range claims pending indices from other ranges
    (back-to-front, via a per-index atomic claim) instead of idling.
    Results are written to the slot of the index they came from, so for
    pure [f] the returned array is byte-identical to {!map_array} — and to
    the serial map — for every pool size; only the wall-clock balance and
    the volatile [pool.steals] counter depend on who ran what. Prefer this
    over {!map_array} when per-item cost is skewed (e.g. explorer trials
    that shrink a counterexample). *)

val iter_grid : t -> ('a -> unit) -> 'a array -> unit
(** [iter_grid pool f grid] applies [f] to every grid point, partitioned
    over domains in contiguous chunks. [f] runs concurrently: calls for
    different indices must touch disjoint mutable state (the canonical use
    writes [results.(i)] from the task for index [i]). *)

val find_first : t -> ('a -> 'b option) -> 'a array -> 'b option
(** [find_first pool f xs] is [Some y] where [y = f xs.(i)] for the {e
    smallest} [i] with [f xs.(i) <> None], or [None]. Equivalent to the
    serial left-to-right search for pure [f] — the parallel scan shares a
    lowest-hit watermark so later chunks stop early, but the winner is
    always the minimal index, keeping counterexample reports (e.g.
    {!Robust} violations) deterministic. *)
