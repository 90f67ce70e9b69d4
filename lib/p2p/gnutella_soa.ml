(* SoA Gnutella engine. Two regimes share all the machinery:

   - shards = 1: draws come sequentially from the caller's rng (kicks
     first, then one float per query), so the stats are bitwise those of
     the boxed linear-scan reference loop the tests keep — the QCheck pin
     that the columns / prefix sums / exchange plumbing is faithful.
   - shards > 1: per-shard split streams (kicks: index s; queries:
     index shards + b·shards + s for batch b), deterministic at any
     [jobs] because the parallel phases only write shard-local column
     ranges and post serve events to the exchange. *)

module Soa = Bn_agents.Soa
module Prng = Bn_util.Prng
module Pool = Bn_util.Pool
module Obs = Bn_obs.Obs

let c_queries = Obs.counter ~kind:Obs.Det "gnutella_soa.queries"
let c_cross = Obs.counter ~kind:Obs.Det "gnutella_soa.cross_shard_events"
let c_flushes = Obs.counter ~kind:Obs.Det "gnutella_soa.flushes"

(* Batch sizing is derived from [queries]/[batch_queries] only, so its
   distribution is Det; the per-batch wall time is Volatile. *)
let sk_batch_q = Obs.sketch ~kind:Obs.Det "gnutella_soa.queries_per_batch"
let sk_batch_ns = Obs.sketch ~kind:Obs.Volatile "gnutella_soa.batch_ns"

let batch_queries = 1 lsl 20

let simulate ?(jobs = 1) ?(shards = 1) rng params =
  let { Gnutella.users; cost; kick_scale; zipf_exponent; queries } = params in
  if users < 10 then invalid_arg "Gnutella_soa.simulate: need at least 10 users";
  let part = Soa.partition ~n:users ~shards in
  let shards = Soa.shards part in
  let pool = Pool.create ~domains:jobs () in
  let shard_ids = Array.init shards Fun.id in
  (* lib.(i) = shared library size; cum.(i) = left-fold prefix
     lib.(lo) + … + lib.(i) within agent i's shard — at shards = 1 this
     is exactly a linear scan's running accumulator, so the binary
     search below picks the same host as that scan. *)
  let lib = Soa.F64.create users in
  let cum = Soa.F64.create users in
  let sharer_tally = Array.make shards 0 in
  Pool.iter_grid pool
    (fun s ->
      let rng = if shards = 1 then rng else Prng.split rng s in
      let lo, hi = Soa.bounds part s in
      let sharers = ref 0 in
      let acc = ref 0.0 in
      for i = lo to hi - 1 do
        let kick = Gnutella.zipf_sample rng ~scale:kick_scale ~exponent:zipf_exponent in
        let l = if kick > cost then Float.max 0.0 (kick -. cost) else 0.0 in
        if kick > cost then incr sharers;
        Soa.F64.uset lib i l;
        acc := !acc +. l;
        Soa.F64.uset cum i !acc
      done;
      sharer_tally.(s) <- !sharers)
    shard_ids;
  let sharers = Array.fold_left ( + ) 0 sharer_tally in
  (* Per-shard library mass, folded in shard order: base.(s) is the mass
     strictly before shard s, base.(shards) the grand total — at
     shards = 1 the left-fold float total of all libraries. *)
  let base = Array.make (shards + 1) 0.0 in
  for s = 0 to shards - 1 do
    let lo, hi = Soa.bounds part s in
    base.(s + 1) <- base.(s) +. (if hi > lo then Soa.F64.uget cum (hi - 1) else 0.0)
  done;
  let total_library = base.(shards) in
  let served = Soa.I32.create users in
  let ex = Soa.Exchange.create ~shards in
  (* Route x ∈ [0, total): owning shard by scan over the (few) bases,
     then binary search for the first i in the shard with x' < cum.(i),
     clamped to the shard's last host. *)
  let route x =
    let s = ref 0 in
    while !s < shards - 1 && x >= base.(!s + 1) do
      incr s
    done;
    let lo, hi = Soa.bounds part !s in
    let x' = x -. base.(!s) in
    let l = ref lo and h = ref (hi - 1) in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if x' < Soa.F64.uget cum mid then h := mid else l := mid + 1
    done;
    (!s, !l)
  in
  let cross = ref 0 and flushes = ref 0 in
  if total_library > 0.0 && queries > 0 then begin
    let batches = Soa.partition ~n:queries ~shards:((queries + batch_queries - 1) / batch_queries) in
    for b = 0 to Soa.shards batches - 1 do
      let bq_lo, bq_hi = Soa.bounds batches b in
      Obs.observe_sk sk_batch_q (bq_hi - bq_lo);
      Obs.timed sk_batch_ns @@ fun () ->
      let qpart = Soa.partition ~n:(bq_hi - bq_lo) ~shards in
      let cross_tally = Array.make shards 0 in
      Pool.iter_grid pool
        (fun s ->
          let rng =
            if shards = 1 then rng
            else Prng.split rng (shards + (b * shards) + s)
          in
          let qlo, qhi = Soa.bounds qpart s in
          for _ = qlo to qhi - 1 do
            let x = Prng.float rng *. total_library in
            let dst, host = route x in
            if dst <> s then cross_tally.(s) <- cross_tally.(s) + 1;
            Soa.Exchange.post ex ~src:s ~dst host 1
          done)
        shard_ids;
      Array.iter (fun c -> cross := !cross + c) cross_tally;
      (* Serve every posted (host, increment) in the exchange's (src,
         dst, posting order), reading its buffers directly. *)
      let buffers = ex.Soa.Exchange.buffers in
      for k = 0 to Array.length buffers - 1 do
        let { Soa.Exchange.data; len } = buffers.(k) in
        let i = ref 0 in
        while !i < len do
          let host = Int32.to_int (Soa.I32.uget data !i) in
          let inc = Soa.I32.uget data (!i + 1) in
          Soa.I32.uset served host (Int32.add (Soa.I32.uget served host) inc);
          i := !i + 2
        done
      done;
      Soa.Exchange.clear ex;
      incr flushes
    done
  end;
  Obs.add c_queries queries;
  Obs.add c_cross !cross;
  Obs.add c_flushes !flushes;
  Gnutella.stats_of_load ~users ~sharers ~served:(Soa.I32.to_array served)
