module B = Beyond_nash

let check_float = Alcotest.(check (float 1e-9))

(* A tiny two-player Bayesian coordination game: player 0 has two types,
   "left-lover" (0) and "right-lover" (1), each with probability 1/2;
   player 1 has one type. Coordinating on 0's favourite yields (2,1) for
   left and (3,1) for right; miscoordination yields (0,0). *)
let coordination =
  B.Bayesian.create ~num_types:[| 2; 1 |] ~actions:[| 2; 2 |]
    ~prior:(B.Dist.uniform [ [| 0; 0 |]; [| 1; 0 |] ])
    (fun ~types ~acts ->
      if acts.(0) <> acts.(1) then [| 0.0; 0.0 |]
      else if acts.(0) = types.(0) then [| (if types.(0) = 0 then 2.0 else 3.0); 1.0 |]
      else [| 0.5; 0.5 |])

let behavioral_of t = Array.mapi (fun i s -> B.Bayesian.pure_to_behavioral coordination ~player:i s) t

let test_create_validation () =
  Alcotest.check_raises "type out of range"
    (Invalid_argument "Bayesian.create: prior type out of range") (fun () ->
      ignore
        (B.Bayesian.create ~num_types:[| 1 |] ~actions:[| 2 |]
           ~prior:(B.Dist.return [| 3 |])
           (fun ~types:_ ~acts:_ -> [| 0.0 |])))

let test_pure_strategy_count () =
  Alcotest.(check int) "2 types x 2 actions = 4" 4
    (List.length (B.Bayesian.pure_strategies coordination ~player:0));
  Alcotest.(check int) "1 type x 2 actions = 2" 2
    (List.length (B.Bayesian.pure_strategies coordination ~player:1))

let test_ex_ante_utility () =
  (* 0 plays its type, 1 plays 0: coordinate only when type = 0. *)
  let prof = behavioral_of [| [| 0; 1 |]; [| 0 |] |] in
  let u = B.Bayesian.ex_ante_utility coordination prof in
  check_float "player0" 1.0 u.(0);
  (* 0.5 * 2 *)
  check_float "player1" 0.5 u.(1)

let test_interim_utility () =
  let prof = behavioral_of [| [| 0; 1 |]; [| 0 |] |] in
  check_float "type 0 interim" 2.0
    (B.Bayesian.interim_utility coordination prof ~player:0 ~ptype:0);
  check_float "type 1 interim" 0.0
    (B.Bayesian.interim_utility coordination prof ~player:0 ~ptype:1)

let test_truthful_not_nash_here () =
  (* With player 1 fixed at 0, player 0's type-1 should deviate to 0
     (0.5 > 0), so type-play is not a Bayes-Nash equilibrium. *)
  let prof = behavioral_of [| [| 0; 1 |]; [| 0 |] |] in
  Alcotest.(check bool) "not BNE" false (B.Bayesian.is_bayes_nash coordination prof)

let test_pooling_is_nash () =
  (* Both of 0's types play 0; 1 plays 0. Type 1 gets 0.5; deviating to 1
     miscoordinates for 0. Player 1: deviating to 1 yields 0. *)
  let prof = behavioral_of [| [| 0; 0 |]; [| 0 |] |] in
  Alcotest.(check bool) "pooling BNE" true (B.Bayesian.is_bayes_nash coordination prof)

let test_pure_bayes_nash_enumeration () =
  let eqs = B.Bayesian.pure_bayes_nash coordination in
  Alcotest.(check bool) "at least the pooling equilibria" true (List.length eqs >= 2);
  List.iter
    (fun e ->
      let prof = behavioral_of e in
      Alcotest.(check bool) "each is BNE" true (B.Bayesian.is_bayes_nash coordination prof))
    eqs

let test_agent_form_equivalence () =
  let game, agents = B.Bayesian.agent_form coordination in
  Alcotest.(check int) "3 agents" 3 (Array.length agents);
  (* Pooling equilibrium corresponds to all agents playing 0. *)
  Alcotest.(check bool) "agent-form Nash" true
    (B.Nash.is_pure_nash game (Array.make 3 0));
  (* The non-equilibrium from test_truthful_not_nash_here maps to agents
     (0,ty0)->0, (0,ty1)->1, (1,ty0)->0. *)
  Alcotest.(check bool) "agent-form non-Nash" false
    (B.Nash.is_pure_nash game [| 0; 1; 0 |])

let test_outcome_dist_mass () =
  let prof = behavioral_of [| [| 0; 1 |]; [| 0 |] |] in
  let d = B.Bayesian.outcome_dist coordination prof in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (B.Dist.to_list d) in
  check_float "mass 1" 1.0 total

let test_ba_game_shape () =
  let g = B.Ba_game.game ~n:4 in
  Alcotest.(check int) "4 players" 4 (B.Bayesian.n_players g);
  Alcotest.(check int) "general has 2 types" 2 (B.Bayesian.num_types g 0);
  Alcotest.(check int) "soldier has 1 type" 1 (B.Bayesian.num_types g 1)

let test_ba_majority () =
  Alcotest.(check int) "majority 1" 1 (B.Ba_game.majority [| 1; 1; 0 |]);
  Alcotest.(check int) "tie -> 0" 0 (B.Ba_game.majority [| 1; 0 |])

let interim_vs_exante_property =
  QCheck.Test.make ~count:50 ~name:"bayesian: ex-ante = prior-weighted interim"
    QCheck.(int_range 0 3)
    (fun strategy_idx ->
      let strategies = B.Bayesian.pure_strategies coordination ~player:0 in
      let s0 = List.nth strategies (strategy_idx mod List.length strategies) in
      let prof = behavioral_of [| s0; [| 0 |] |] in
      let ex_ante = (B.Bayesian.ex_ante_utility coordination prof).(0) in
      let weighted =
        0.5 *. B.Bayesian.interim_utility coordination prof ~player:0 ~ptype:0
        +. (0.5 *. B.Bayesian.interim_utility coordination prof ~player:0 ~ptype:1)
      in
      Float.abs (ex_ante -. weighted) < 1e-9)

(* {2 The interim table against the behavioral check}

   Random 2- and 3-player games with 1–3 types and 1–3 actions per player
   (at most 300 pure profiles), drawn from a seed. Prior weights are
   drawn from {0, 1, 2, 3}, so some types have probability 0 and the check
   must skip them; small integer payoffs make ties common. *)
let random_bayesian seed =
  let rng = B.Prng.create seed in
  let n = 2 + B.Prng.int rng 2 in
  let rec draw () =
    let num_types = Array.init n (fun _ -> 1 + B.Prng.int rng 3) in
    let actions = Array.init n (fun _ -> 1 + B.Prng.int rng 3) in
    let profiles = ref 1 in
    Array.iteri
      (fun i k ->
        for _ = 1 to k do
          profiles := !profiles * actions.(i)
        done)
      num_types;
    if !profiles <= 300 then (num_types, actions) else draw ()
  in
  let num_types, actions = draw () in
  let type_profiles = B.Combin.profiles num_types in
  let weights = List.map (fun tp -> (tp, float_of_int (B.Prng.int rng 4))) type_profiles in
  let weights =
    if List.for_all (fun (_, w) -> w = 0.0) weights then
      (List.hd type_profiles, 1.0) :: List.tl weights
    else weights
  in
  let pay = Array.init 729 (fun _ -> Array.init n (fun _ -> float_of_int (B.Prng.int rng 5 - 2))) in
  B.Bayesian.create ~num_types ~actions ~prior:(B.Dist.of_list weights) (fun ~types ~acts ->
      let idx = ref 0 in
      Array.iteri (fun j ty -> idx := (((!idx * 3) + ty) * 3) + acts.(j)) types;
      pay.(!idx))

let pure_bayes_nash_oracle_property =
  QCheck.Test.make ~count:150 ~name:"pure BNE: interim table = behavioral-check oracle"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let b = random_bayesian seed in
      List.for_all
        (fun eps ->
          B.Bayesian.pure_bayes_nash ?eps b = Oracles.Bayesian.pure_bayes_nash ?eps b)
        [ None; Some 0.0; Some 0.5 ])

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "pure strategy count" `Quick test_pure_strategy_count;
    Alcotest.test_case "ex-ante utility" `Quick test_ex_ante_utility;
    Alcotest.test_case "interim utility" `Quick test_interim_utility;
    Alcotest.test_case "separating not BNE" `Quick test_truthful_not_nash_here;
    Alcotest.test_case "pooling is BNE" `Quick test_pooling_is_nash;
    Alcotest.test_case "pure BNE enumeration" `Quick test_pure_bayes_nash_enumeration;
    Alcotest.test_case "agent form equivalence" `Quick test_agent_form_equivalence;
    Alcotest.test_case "outcome dist mass" `Quick test_outcome_dist_mass;
    Alcotest.test_case "BA game shape" `Quick test_ba_game_shape;
    Alcotest.test_case "BA majority" `Quick test_ba_majority;
    QCheck_alcotest.to_alcotest interim_vs_exante_property;
    QCheck_alcotest.to_alcotest pure_bayes_nash_oracle_property;
  ]
