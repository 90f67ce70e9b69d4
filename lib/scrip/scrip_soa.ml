(* Sharded batched scrip engine on the SoA store. Parallel phase: each
   shard touches only its own agents' columns and posts cross-shard
   requests to the Exchange; after the barrier a sequential loop over
   the Exchange's buffers executes them in (src, dst, posting order). Per-(step, shard) Prng.split
   streams make the whole run a pure function of (seed, shards) — the
   domain budget never enters. *)

module Soa = Bn_agents.Soa
module Prng = Bn_util.Prng
module Pool = Bn_util.Pool
module Obs = Bn_obs.Obs

(* Kind encoding in the I8 column. *)
let k_standard = 0
let k_hoarder = 1
let k_altruist = 2

let c_steps = Obs.counter ~kind:Obs.Det "scrip_soa.steps"
let c_requests = Obs.counter ~kind:Obs.Det "scrip_soa.requests"
let c_satisfied = Obs.counter ~kind:Obs.Det "scrip_soa.satisfied"
let c_cross = Obs.counter ~kind:Obs.Det "scrip_soa.cross_shard_events"
let c_flushes = Obs.counter ~kind:Obs.Det "scrip_soa.flushes"

(* The request count per step is seed-determined (hoarder draws skip the
   post), so its distribution is Det; the batch wall time is Volatile. *)
let sk_step_req = Obs.sketch ~kind:Obs.Det "scrip_soa.requests_per_step"
let sk_step_ns = Obs.sketch ~kind:Obs.Volatile "scrip_soa.step_ns"

type t = {
  params : Scrip.params;
  part : Soa.part;
  scrip : Soa.I32.t;
  kind : Soa.I8.t;
  thresh : Soa.I32.t;
  util : Soa.F64.t;
  ex : Soa.Exchange.t;
  base : Prng.t;  (* never advanced: split per (step, shard) *)
  total_scrip : int;
  k_max : int;
  (* Cross-shard posts of the current step, one slot per shard: each
     shard writes only its own slot, once, at the end of its draw. *)
  cross : int array;
  mutable steps : int;
  mutable requests : int;
  mutable satisfied : int;
  mutable starved : int;
  mutable unserved : int;
  mutable cross_shard : int;
  mutable flushes : int;
}

type soa_stats = {
  n : int;
  shards : int;
  steps : int;
  requests : int;
  satisfied : int;
  starved : int;
  unserved : int;
  cross_shard : int;
  flushes : int;
  total_scrip : int;
  dist : int array;
  mean_balance : float;
  avg_utility : float array;
}

let create ?(shards = 64) ~seed ~params ~kind_of ~money_per_agent () =
  let n = params.Scrip.n in
  if n < 2 then invalid_arg "Scrip_soa.create: need n >= 2";
  let part = Soa.partition ~n ~shards in
  let scrip = Soa.I32.create n in
  let kind = Soa.I8.create n in
  let thresh = Soa.I32.create n in
  let util = Soa.F64.create n in
  let k_max = ref 1 in
  for i = 0 to n - 1 do
    (match kind_of i with
    | Scrip.Standard k ->
      Soa.I8.uset kind i k_standard;
      Soa.I32.uset thresh i (Int32.of_int k);
      if k > !k_max then k_max := k
    | Scrip.Hoarder -> Soa.I8.uset kind i k_hoarder
    | Scrip.Altruist -> Soa.I8.uset kind i k_altruist)
  done;
  let total_scrip = int_of_float (money_per_agent *. float_of_int n) in
  (* Round-robin deal, closed form (same as Scrip.simulate). *)
  let base_deal = total_scrip / n and extra = total_scrip mod n in
  for i = 0 to n - 1 do
    Soa.I32.uset scrip i (Int32.of_int (base_deal + if i < extra then 1 else 0))
  done;
  {
    params;
    part;
    scrip;
    kind;
    thresh;
    util;
    ex = Soa.Exchange.create ~shards:(Soa.shards part);
    base = Prng.create seed;
    total_scrip;
    k_max = !k_max;
    cross = Array.make (Soa.shards part) 0;
    steps = 0;
    requests = 0;
    satisfied = 0;
    starved = 0;
    unserved = 0;
    cross_shard = 0;
    flushes = 0;
  }

let steps_done (t : t) = t.steps

(* The [v]-th agent other than [c], for a draw [v] in [0, n − 2]: [v]
   itself below [c], [v + 1] from [c] on. When [v >= c], c − 1 − v is
   negative, and bit 62 (the sign of a 63-bit int) is what [lsr 62]
   keeps, so the skip costs no branch on a coin-flip comparison. *)
let[@inline] skip_self ~chooser:c v = v + ((c - 1 - v) lsr 62)

let step ?(pool = Pool.serial) t =
  Obs.span "scrip_soa.step" (fun () ->
    Obs.timed sk_step_ns @@ fun () ->
    let n = Soa.n t.part and shards = Soa.shards t.part in
    let shard_ids = Array.init shards Fun.id in
    (* Parallel phase: request generation only. Each shard draws nloc
       (chooser, probe) pairs from its own split stream and posts them —
       same-shard pairs included, into the (s, s) buffer. Both draws are
       state-independent, so nothing here reads a column another shard
       could write; all state changes happen in the replay below. *)
    Pool.iter_grid pool
      (fun s ->
        let rng = Prng.split t.base ((t.steps * shards) + s) in
        let lo, hi = Soa.bounds t.part s in
        let cross = ref 0 in
        for _ = lo to hi - 1 do
          (* Chooser uniform over the whole population, not the shard:
             restricting slot i's chooser to shard s makes that slot's
             kernel favour configurations by shard-local wealth, a
             stratification bias the chi-square test detects at n ≥ 10⁵.
             The globally-uniform probe kernel is doubly stochastic, so
             every slot preserves the uniform law exactly. *)
          let c = Prng.int rng n in
          if Soa.I8.uget t.kind c <> k_hoarder then begin
            (* One uniform probe among the n − 1 other agents: served
               volunteers end up uniform among willing agents — the KFH
               conditional law — and the probe pair is independent of
               the evolving balances. *)
            let v = skip_self ~chooser:c (Prng.int rng (n - 1)) in
            let dst = Soa.shard_of t.part v in
            if dst <> s then incr cross;
            Soa.Exchange.post t.ex ~src:s ~dst c v
          end
        done;
        t.cross.(s) <- !cross)
      shard_ids;
    (* Barrier passed: execute every request sequentially in the
       Exchange's fixed (src, dst, posting order) replay, evaluating the
       balance and willingness gates at execution time. This makes the
       batch an exact sequential run of the probe chain — a doubly
       stochastic walk on the fixed-money configuration slab — whose
       stationary law is uniform there, hence the {!Steady_state}
       max-entropy marginal. Applying gates at probe time instead
       (e.g. serving same-shard pairs mid-phase) measurably squeezes the
       stationary histogram toward its middle bins. The loop reads the
       exchange's buffers directly, so each event costs only its gates
       and column updates: every access below is an inline primitive. *)
    let scrip = t.scrip and kind = t.kind and thresh = t.thresh and util = t.util in
    let benefit = t.params.Scrip.benefit and cost = t.params.Scrip.cost in
    let req = ref 0 and sat = ref 0 and sta = ref 0 and uns = ref 0 in
    let buffers = t.ex.Soa.Exchange.buffers in
    for b = 0 to Array.length buffers - 1 do
      let { Soa.Exchange.data; len } = buffers.(b) in
      let i = ref 0 in
      while !i < len do
        let c = Int32.to_int (Soa.I32.uget data !i) in
        let v = Int32.to_int (Soa.I32.uget data (!i + 1)) in
        let bal_c = Int32.to_int (Soa.I32.uget scrip c) in
        let kind_v = Soa.I8.uget kind v in
        if bal_c < 1 then incr sta
        else if
          kind_v <> k_standard
          || Int32.to_int (Soa.I32.uget scrip v) < Int32.to_int (Soa.I32.uget thresh v)
        then begin
          (* One service: chooser pays benefit's worth, volunteer bears
             the cost; scrip moves unless the volunteer is an altruist. *)
          Soa.F64.uset util c (Soa.F64.uget util c +. benefit);
          Soa.F64.uset util v (Soa.F64.uget util v -. cost);
          if kind_v <> k_altruist then begin
            Soa.I32.uset scrip c (Int32.of_int (bal_c - 1));
            Soa.I32.uset scrip v (Int32.succ (Soa.I32.uget scrip v))
          end;
          incr sat
        end
        else incr uns;
        i := !i + 2
      done;
      req := !req + (len / 2)
    done;
    Soa.Exchange.clear t.ex;
    let crx = Array.fold_left ( + ) 0 t.cross in
    t.requests <- t.requests + !req;
    t.satisfied <- t.satisfied + !sat;
    t.starved <- t.starved + !sta;
    t.unserved <- t.unserved + !uns;
    t.cross_shard <- t.cross_shard + crx;
    t.flushes <- t.flushes + 1;
    t.steps <- t.steps + 1;
    Obs.incr c_steps;
    Obs.incr c_flushes;
    Obs.add2 c_requests !req c_satisfied !sat;
    Obs.add c_cross crx;
    Obs.observe_sk sk_step_req !req)

let stats t =
  let n = Soa.n t.part in
  let dist = Array.make (t.k_max + 2) 0 in
  let kind_sum = [| 0.0; 0.0; 0.0 |] and kind_n = [| 0; 0; 0 |] in
  for i = 0 to n - 1 do
    let bal = Int32.to_int (Soa.I32.uget t.scrip i) in
    let j = if bal > t.k_max then t.k_max + 1 else bal in
    dist.(j) <- dist.(j) + 1;
    let k = Soa.I8.uget t.kind i in
    kind_sum.(k) <- kind_sum.(k) +. Soa.F64.uget t.util i;
    kind_n.(k) <- kind_n.(k) + 1
  done;
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + Int32.to_int (Soa.I32.uget t.scrip i)
  done;
  {
    n;
    shards = Soa.shards t.part;
    steps = t.steps;
    requests = t.requests;
    satisfied = t.satisfied;
    starved = t.starved;
    unserved = t.unserved;
    cross_shard = t.cross_shard;
    flushes = t.flushes;
    total_scrip = !total;
    dist;
    mean_balance = float_of_int !total /. float_of_int n;
    avg_utility =
      Array.init 3 (fun k ->
          if kind_n.(k) = 0 then 0.0
          else kind_sum.(k) /. float_of_int kind_n.(k));
  }

let run ?(jobs = 1) ?shards ~seed ~steps ~params ~kind_of ~money_per_agent () =
  let t = create ?shards ~seed ~params ~kind_of ~money_per_agent () in
  let pool = Pool.create ~domains:jobs () in
  for _ = 1 to steps do
    step ~pool t
  done;
  stats t

let goodness_of_fit st ~threshold ~money_per_agent =
  let analytic = Steady_state.max_entropy ~threshold ~money_per_agent in
  (* Pad with zero-probability cells (hoarder overflow bin and any gap
     between the common threshold and k_max) to match [dist]. *)
  let expected = Array.make (Array.length st.dist) 0.0 in
  Array.blit analytic 0 expected 0
    (min (Array.length analytic) (Array.length expected));
  Steady_state.chi_square ~observed:st.dist ~expected
