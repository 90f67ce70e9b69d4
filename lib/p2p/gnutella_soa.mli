(** The Gnutella free-riding population simulation, on the SoA store.

    User [i] draws a Zipf kick [k_i] ({!Gnutella.zipf_sample}) and shares
    iff [k_i > cost]; a sharer holds a library of size [k_i − cost], and
    each query is served by a host drawn with probability proportional to
    library size. Kicks and library prefix sums live in flat
    {!Bn_agents.Soa.F64} columns, a query routes in O(log users) (binary
    search over per-shard bases, then within the owning shard), and serve
    counts cross shards through the {!Bn_agents.Soa.Exchange}, flushed
    once per query batch.

    At [shards = 1] the engine consumes the caller's generator in order —
    every kick, then one float per query — and the serially built prefix
    sums make the binary search return the host a linear scan of the
    running library total would: its stats equal those of the boxed
    O(users)-per-query reference loop kept in the tests (QCheck-pinned in
    test/test_scrip_p2p.ml). E10 runs this mode. With [shards > 1] each
    shard draws kicks and queries from its own {!Bn_util.Prng.split}
    stream: a different (equally valid) sample of the same population
    model, byte-identical at any [?jobs]. *)

val batch_queries : int
(** Queries routed between exchange flushes (2²⁰): bounds the exchange
    buffer footprint at ~8 MB regardless of [params.queries]. *)

val simulate :
  ?jobs:int -> ?shards:int -> Bn_util.Prng.t -> Gnutella.params -> Gnutella.stats
(** [shards] defaults to 1 (the bitwise-compatible mode); [jobs]
    defaults to 1. Shard and batch boundaries depend only on
    [(users, queries, shards)], never on [jobs]. *)
