module B = Beyond_nash
module S = B.Scrip
module G = B.Gnutella

(* {1 Scrip} *)

let params n = S.default_params ~n

let all_standard n k = Array.make n (S.Standard k)

let test_money_conserved () =
  (* Without altruists, scrip only changes hands. *)
  let rng = B.Prng.create 1 in
  let n = 20 in
  let st = S.simulate rng (params n) ~kinds:(all_standard n 5) ~money_per_agent:2.0 in
  Alcotest.(check int) "total scrip conserved" 40 (Array.fold_left ( + ) 0 st.S.final_scrip)

let test_efficiency_inverted_u () =
  (* Efficiency rises with money, then crashes when everyone is above
     threshold and nobody volunteers (the KFH monetary crash). *)
  let run m =
    let rng = B.Prng.create 2 in
    S.efficiency (params 30) (S.simulate rng (params 30) ~kinds:(all_standard 30 5) ~money_per_agent:m)
  in
  let low = run 0.5 and mid = run 3.0 and crash = run 6.0 in
  Alcotest.(check bool) "more money helps" true (mid > low);
  Alcotest.(check bool) "too much money crashes" true (crash < 0.2)

let test_crash_mechanism () =
  (* At money >= threshold for everyone, no volunteers ever. *)
  let rng = B.Prng.create 3 in
  let st = S.simulate rng (params 10) ~kinds:(all_standard 10 3) ~money_per_agent:3.0 in
  Alcotest.(check int) "nothing served" 0 st.S.satisfied;
  Alcotest.(check bool) "all demand unserved" true (st.S.unserved > 0)

let test_altruists_raise_welfare () =
  let n = 20 in
  let run kinds =
    let rng = B.Prng.create 4 in
    let st = S.simulate rng (params n) ~kinds ~money_per_agent:1.0 in
    S.avg_utility st ~who:(fun i -> match kinds.(i) with S.Standard _ -> true | _ -> false)
  in
  let base = run (all_standard n 5) in
  let with_altruists =
    run (Array.init n (fun i -> if i < 3 then S.Altruist else S.Standard 5))
  in
  Alcotest.(check bool) "altruists help the rest" true (with_altruists > base)

let test_hoarders_drain_money () =
  (* Hoarders accumulate scrip and never spend: the money available to
     standard agents shrinks. *)
  let n = 20 in
  let rng = B.Prng.create 5 in
  let kinds = Array.init n (fun i -> if i < 4 then S.Hoarder else S.Standard 5) in
  let st = S.simulate rng (params n) ~kinds ~money_per_agent:2.0 in
  let hoarder_scrip = Array.fold_left ( + ) 0 (Array.sub st.S.final_scrip 0 4) in
  Alcotest.(check bool) "hoarders hold above initial share" true (hoarder_scrip > 8);
  Alcotest.(check bool) "standard agents starve more" true (st.S.starved > 0)

let test_stats_accounting () =
  let rng = B.Prng.create 6 in
  let st = S.simulate rng (params 10) ~kinds:(all_standard 10 5) ~money_per_agent:2.0 in
  Alcotest.(check int) "requests = satisfied + starved + unserved" st.S.requests
    (st.S.satisfied + st.S.starved + st.S.unserved)

let test_best_threshold_moderate () =
  (* The empirical best response is an interior threshold: not 1, since
     being broke starves you; and bounded. *)
  let rng = B.Prng.create 7 in
  let k, _ = S.best_threshold rng (params 30) ~others:5 ~money_per_agent:2.0
      ~candidates:[ 1; 2; 3; 5; 8; 12; 20 ]
  in
  Alcotest.(check bool) "interior threshold" true (k > 1 && k <= 20)

let scrip_utility_sign_property =
  QCheck.Test.make ~count:20 ~name:"scrip: benefit > cost makes utilities net positive overall"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let n = 10 in
      let rng = B.Prng.create seed in
      let st = S.simulate rng (params n) ~kinds:(all_standard n 4) ~money_per_agent:2.0 in
      (* Every served request adds benefit - cost = 0.8 > 0 to the total. *)
      let total = Array.fold_left ( +. ) 0.0 st.S.utilities in
      total >= 0.0)

(* {1 Scrip: SoA engine vs oracles} *)

let arb_kinds =
  (* Mixed populations over all three kinds, with varied thresholds. *)
  QCheck.(
    list_of_size
      Gen.(int_range 4 40)
      (oneof
         [
           map (fun k -> S.Standard k) (int_range 1 8);
           always S.Hoarder;
           always S.Altruist;
         ]))

let scrip_fast_vs_naive_property =
  QCheck.Test.make ~count:40 ~name:"scrip: Fenwick simulate bitwise-equal to naive oracle"
    QCheck.(pair (int_range 1 1000) arb_kinds)
    (fun (seed, kinds_l) ->
      let kinds = Array.of_list kinds_l in
      let n = Array.length kinds in
      let run sim = sim (B.Prng.create seed) (params n) ~kinds ~money_per_agent:1.5 in
      run S.simulate = run S.simulate_naive)

let soa_conservation_property =
  QCheck.Test.make ~count:15 ~name:"scrip soa: accounting and conservation invariants"
    QCheck.(triple (int_range 1 500) (int_range 20 200) (int_range 1 8))
    (fun (seed, n, shards) ->
      let p = { (params n) with S.rounds = 0 } in
      let st =
        B.Scrip_soa.run ~jobs:2 ~shards ~seed ~steps:20 ~params:p
          ~kind_of:(fun i -> if i mod 7 = 0 then S.Hoarder else S.Standard 5)
          ~money_per_agent:2.0 ()
      in
      let open B.Scrip_soa in
      st.requests = st.satisfied + st.starved + st.unserved
      && st.total_scrip = int_of_float (2.0 *. float_of_int n)
      && Array.fold_left ( + ) 0 st.dist = n
      && st.flushes = 20
      && st.cross_shard <= st.requests)

let soa_jobs_invariant_property =
  QCheck.Test.make ~count:10 ~name:"scrip soa: jobs=1 and jobs=4 give identical stats"
    QCheck.(pair (int_range 1 500) (int_range 50 300))
    (fun (seed, n) ->
      let p = { (params n) with S.rounds = 0 } in
      let run jobs =
        B.Scrip_soa.run ~jobs ~shards:8 ~seed ~steps:25 ~params:p
          ~kind_of:(fun i -> if i mod 11 = 0 then S.Altruist else S.Standard 4)
          ~money_per_agent:1.5 ()
      in
      run 1 = run 4)

let test_soa_altruists_inject_scrip () =
  (* Altruists serve without taking payment, so total scrip is conserved
     while service keeps flowing even when standard agents are broke. *)
  let n = 100 in
  let p = { (params n) with S.rounds = 0 } in
  let st =
    B.Scrip_soa.run ~shards:8 ~seed:5 ~steps:50 ~params:p
      ~kind_of:(fun i -> if i mod 2 = 0 then S.Altruist else S.Standard 5)
      ~money_per_agent:1.0 ()
  in
  Alcotest.(check int) "scrip conserved" 100 st.B.Scrip_soa.total_scrip;
  Alcotest.(check bool) "altruists served" true (st.B.Scrip_soa.satisfied > 0)

(* {1 Gnutella} *)

(* The boxed reference loop, kept here as the oracle for the SoA engine:
   kicks in a boxed array, each query routed by an O(users) linear scan
   of the running library total. *)
let boxed_simulate rng params =
  let { G.users; cost; kick_scale; zipf_exponent; queries } = params in
  let kicks =
    Array.init users (fun _ -> G.zipf_sample rng ~scale:kick_scale ~exponent:zipf_exponent)
  in
  let shares = Array.map (fun k -> k > cost) kicks in
  let library i = if shares.(i) then Float.max 0.0 (kicks.(i) -. cost) else 0.0 in
  let libraries = Array.init users library in
  let total_library = Array.fold_left ( +. ) 0.0 libraries in
  let served = Array.make users 0 in
  if total_library > 0.0 then
    for _ = 1 to queries do
      let x = B.Prng.float rng *. total_library in
      let rec pick i acc =
        if i >= users - 1 then i
        else begin
          let acc = acc +. libraries.(i) in
          if x < acc then i else pick (i + 1) acc
        end
      in
      let host = pick 0 0.0 in
      served.(host) <- served.(host) + 1
    done;
  let sharers = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 shares in
  G.stats_of_load ~users ~sharers ~served

let test_free_riding_shape () =
  let rng = B.Prng.create 8 in
  let s = B.Gnutella_soa.simulate rng (G.default_params ~users:2000) in
  Alcotest.(check bool) "~70% free riders" true
    (s.G.free_rider_fraction > 0.55 && s.G.free_rider_fraction < 0.85);
  Alcotest.(check bool) "top 1% serves ~half" true
    (s.G.top1_response_share > 0.3 && s.G.top1_response_share < 0.8);
  Alcotest.(check bool) "load is concentrated" true (s.G.gini_load > 0.8)

let test_cost_increases_free_riding () =
  let run cost =
    let rng = B.Prng.create 9 in
    let p = { (G.default_params ~users:2000) with G.cost } in
    (B.Gnutella_soa.simulate rng p).G.free_rider_fraction
  in
  Alcotest.(check bool) "higher cost, more free riding" true (run 2.0 > run 0.5)

let test_sharing_game_dominance () =
  Alcotest.(check bool) "free riding dominant for standard users" true
    (G.free_riding_equilibrium ~n:4 ~cost:1.0 ~download_value:5.0)

let test_sharing_game_with_kicks () =
  (* A user whose kick exceeds the cost shares in equilibrium. *)
  let kicks = [| 2.0; 0.0; 0.0 |] in
  let g = G.sharing_game ~n:3 ~cost:1.0 ~kicks ~download_value:5.0 in
  match B.Dominance.solves_by_dominance g with
  | Some profile ->
    Alcotest.(check int) "kicked user shares" 1 profile.(0);
    Alcotest.(check int) "standard user free rides" 0 profile.(1)
  | None -> Alcotest.fail "dominance-solvable with strict kicks"

let test_sharing_game_is_nash () =
  let kicks = [| 2.0; 0.0; 0.0 |] in
  let g = G.sharing_game ~n:3 ~cost:1.0 ~kicks ~download_value:5.0 in
  Alcotest.(check bool) "share/freeride/freeride is Nash" true
    (B.Nash.is_pure_nash g [| 1; 0; 0 |])

let gnutella_fraction_bounds_property =
  QCheck.Test.make ~count:10 ~name:"gnutella: fractions are probabilities"
    QCheck.(int_range 1 100)
    (fun seed ->
      let rng = B.Prng.create seed in
      let s = B.Gnutella_soa.simulate rng (G.default_params ~users:500) in
      s.G.free_rider_fraction >= 0.0 && s.G.free_rider_fraction <= 1.0
      && s.G.top1_response_share >= 0.0
      && s.G.top1_response_share <= 1.0
      && s.G.top10_response_share >= s.G.top1_response_share -. 1e-9)

(* {1 Gnutella: SoA engine} *)

let gnutella_soa_bitwise_property =
  (* At shards = 1 the SoA engine replays the boxed loop's draw sequence
     exactly: same stats record for every seed and size. *)
  QCheck.Test.make ~count:30 ~name:"gnutella soa: shards=1 bitwise-equal to legacy simulate"
    QCheck.(pair (int_range 1 1000) (int_range 10 800))
    (fun (seed, users) ->
      let p = G.default_params ~users in
      boxed_simulate (B.Prng.create seed) p
      = B.Gnutella_soa.simulate ~shards:1 (B.Prng.create seed) p)

let gnutella_soa_jobs_invariant_property =
  QCheck.Test.make ~count:10 ~name:"gnutella soa: sharded run identical at jobs=1 and jobs=4"
    QCheck.(pair (int_range 1 500) (int_range 100 2000))
    (fun (seed, users) ->
      let p = G.default_params ~users in
      let run jobs = B.Gnutella_soa.simulate ~jobs ~shards:16 (B.Prng.create seed) p in
      run 1 = run 4)

let test_gnutella_soa_sharded_shape () =
  (* The sharded (split-stream) run samples the same population model:
     the free-riding shape survives resharding. *)
  let p = G.default_params ~users:2000 in
  let s = B.Gnutella_soa.simulate ~jobs:2 ~shards:16 (B.Prng.create 8) p in
  Alcotest.(check bool) "~70% free riders" true
    (s.G.free_rider_fraction > 0.55 && s.G.free_rider_fraction < 0.85);
  Alcotest.(check bool) "load is concentrated" true (s.G.gini_load > 0.8)

(* {1 The best-response ladder} *)

let br_cutoff_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"br_cutoff: array grid = list-grid oracle"
    QCheck.(triple (int_range 0 100_000) (int_range 1 3_000) (float_range 0.1 3.0))
    (fun (seed, n, cost) ->
      let cost = if seed mod 3 = 0 then (G.default_params ~users:10).G.cost else cost in
      let tau, _ = Bn_experiments.Scrip_sweep.br_cutoff ~seed ~n ~cost in
      Int64.equal (Int64.bits_of_float tau)
        (Int64.bits_of_float (Oracles.Scrip_sweep.br_cutoff ~seed ~n ~cost)))

let suite =
  [
    Alcotest.test_case "scrip: money conserved" `Quick test_money_conserved;
    Alcotest.test_case "scrip: inverted U" `Slow test_efficiency_inverted_u;
    Alcotest.test_case "scrip: crash mechanism" `Quick test_crash_mechanism;
    Alcotest.test_case "scrip: altruists" `Slow test_altruists_raise_welfare;
    Alcotest.test_case "scrip: hoarders" `Quick test_hoarders_drain_money;
    Alcotest.test_case "scrip: accounting" `Quick test_stats_accounting;
    Alcotest.test_case "scrip: best threshold" `Slow test_best_threshold_moderate;
    QCheck_alcotest.to_alcotest scrip_utility_sign_property;
    QCheck_alcotest.to_alcotest scrip_fast_vs_naive_property;
    QCheck_alcotest.to_alcotest soa_conservation_property;
    QCheck_alcotest.to_alcotest soa_jobs_invariant_property;
    Alcotest.test_case "scrip soa: altruists" `Quick test_soa_altruists_inject_scrip;
    Alcotest.test_case "gnutella: free-riding shape" `Quick test_free_riding_shape;
    Alcotest.test_case "gnutella: cost effect" `Quick test_cost_increases_free_riding;
    Alcotest.test_case "gnutella: dominance" `Quick test_sharing_game_dominance;
    Alcotest.test_case "gnutella: kicks" `Quick test_sharing_game_with_kicks;
    Alcotest.test_case "gnutella: Nash" `Quick test_sharing_game_is_nash;
    QCheck_alcotest.to_alcotest gnutella_fraction_bounds_property;
    QCheck_alcotest.to_alcotest gnutella_soa_bitwise_property;
    QCheck_alcotest.to_alcotest gnutella_soa_jobs_invariant_property;
    Alcotest.test_case "gnutella soa: sharded shape" `Slow test_gnutella_soa_sharded_shape;
    QCheck_alcotest.to_alcotest br_cutoff_matches_oracle;
  ]
