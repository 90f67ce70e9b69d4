module B = Beyond_nash
module R = B.Robust

(* {1 The paper's §2 games} *)

let coord n = B.Games.coordination_01 n
let all0 n = B.Mixed.pure_profile (coord n) (Array.make n 0)

let test_coordination_is_nash_not_2resilient () =
  let g = coord 5 in
  let p = all0 5 in
  Alcotest.(check bool) "Nash" true (B.Nash.is_nash g p);
  Alcotest.(check bool) "1-resilient" true (R.is_k_resilient g p ~k:1);
  Alcotest.(check bool) "not 2-resilient" false (R.is_k_resilient g p ~k:2)

let test_coordination_violation_witness () =
  match R.check_resilience (coord 4) (all0 4) ~k:2 with
  | R.Holds -> Alcotest.fail "should fail at k=2"
  | R.Fails v ->
    Alcotest.(check int) "pair deviates" 2 (List.length v.R.coalition);
    Alcotest.(check bool) "gains" true (v.R.after > v.R.before)

let test_coordination_max_resilience () =
  Alcotest.(check int) "max resilience 1" 1 (R.max_resilience (coord 5) (all0 5))

let test_bargaining_resilient_not_immune () =
  let g = B.Games.bargaining 4 in
  let stay = B.Mixed.pure_profile g (Array.make 4 0) in
  Alcotest.(check int) "k-resilient for all k" 4 (R.max_resilience g stay);
  Alcotest.(check bool) "not 1-immune" false (R.is_t_immune g stay ~t:1);
  Alcotest.(check int) "max immunity 0" 0 (R.max_immunity g stay)

let test_bargaining_immunity_witness () =
  let g = B.Games.bargaining 3 in
  let stay = B.Mixed.pure_profile g (Array.make 3 0) in
  match R.check_immunity g stay ~t:1 with
  | R.Holds -> Alcotest.fail "should fail"
  | R.Fails v ->
    Alcotest.(check int) "one traitor" 1 (List.length v.R.traitors);
    Alcotest.(check bool) "victim not traitor" true (not (List.mem v.R.victim v.R.traitors));
    Alcotest.(check (float 1e-9)) "victim goes to 0" 0.0 v.R.after

let test_nash_equals_10_robust () =
  (* On several games: Nash iff (1,0)-robust for pure profiles. *)
  List.iter
    (fun g ->
      B.Normal_form.iter_profiles g (fun p ->
          let prof = B.Mixed.pure_profile g p in
          Alcotest.(check bool) "Nash = (1,0)-robust"
            (B.Nash.is_nash g prof)
            (R.is_robust g prof ~k:1 ~t:0)))
    [ B.Games.prisoners_dilemma; B.Games.battle_of_sexes; B.Games.chicken; coord 3 ]

let test_zero_resilience_trivial () =
  let g = B.Games.prisoners_dilemma in
  let cc = B.Mixed.pure_profile g [| 0; 0 |] in
  Alcotest.(check bool) "0-resilient holds for anything" true (R.is_k_resilient g cc ~k:0)

let test_weak_vs_strong_variant () =
  (* In the coordination game with n = 4, deviations by pairs make both
     deviators strictly better, so even the Weak variant fails. *)
  let g = coord 4 in
  Alcotest.(check bool) "weak also fails" false
    (R.is_k_resilient ~variant:R.Weak g (all0 4) ~k:2);
  (* A game where one member of the deviation gains and the other loses:
     strong fails, weak holds. *)
  let g2 =
    B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
        match (p.(0), p.(1)) with
        | 0, 0 -> [| 1.0; 1.0 |]
        | 1, 1 -> [| 5.0; 0.0 |] (* joint deviation helps 0, hurts 1 *)
        | _ -> [| 0.0; 0.0 |])
  in
  let prof = B.Mixed.pure_profile g2 [| 0; 0 |] in
  Alcotest.(check bool) "strong fails" false (R.is_k_resilient ~variant:R.Strong g2 prof ~k:2);
  Alcotest.(check bool) "weak holds" true (R.is_k_resilient ~variant:R.Weak g2 prof ~k:2)

let test_immunity_of_constant_game () =
  (* A game where payoffs don't depend on others: trivially immune. *)
  let g = B.Normal_form.create ~actions:[| 2; 2; 2 |] (fun p -> Array.map float_of_int (Array.map (fun a -> 1 - a) p)) in
  let prof = B.Mixed.pure_profile g [| 0; 0; 0 |] in
  Alcotest.(check int) "fully immune" 3 (R.max_immunity g prof)

let test_robust_pure_equilibria_pd () =
  (* PD: (D,D) is Nash = (1,0)-robust; check enumeration finds exactly it. *)
  let eqs = R.robust_pure_equilibria B.Games.prisoners_dilemma ~k:1 ~t:0 in
  Alcotest.(check int) "exactly DD" 1 (List.length eqs);
  Alcotest.(check (array int)) "is DD" [| 1; 1 |] (List.hd eqs)

let test_robustness_combines () =
  (* (k,t)-robust implies k-resilient and t-immune separately. *)
  let g = B.Games.bargaining 4 in
  let stay = B.Mixed.pure_profile g (Array.make 4 0) in
  Alcotest.(check bool) "(2,0)-robust" true (R.is_robust g stay ~k:2 ~t:0);
  Alcotest.(check bool) "not (1,1)-robust (immunity side)" false (R.is_robust g stay ~k:1 ~t:1)

let test_punishment_bargaining () =
  let g = B.Games.bargaining 4 in
  let target = Array.make 4 2.0 in
  (match R.find_punishment g ~target ~budget:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "bargaining has a punishment profile");
  match R.find_punishment g ~target ~budget:3 with
  | Some rho ->
    (* With everyone punished below 2 even when 3 deviate. *)
    Alcotest.(check bool) "profile has a leaver" true (Array.exists (( = ) 1) rho)
  | None -> Alcotest.fail "punishment with larger budget"

let test_punishment_impossible () =
  (* In a constant game everyone always gets 1; can't punish below 1. *)
  let g = B.Normal_form.create ~actions:[| 2; 2 |] (fun _ -> [| 1.0; 1.0 |]) in
  Alcotest.(check bool) "no punishment" true (R.find_punishment g ~target:[| 1.0; 1.0 |] ~budget:1 = None)

let test_mixed_profile_robustness () =
  (* Uniform mixing in matching pennies is Nash hence (1,0)-robust. *)
  let g = B.Games.matching_pennies in
  let prof = B.Mixed.uniform_profile g in
  Alcotest.(check bool) "(1,0)-robust" true (R.is_robust g prof ~k:1 ~t:0)

let resilience_monotone_property =
  QCheck.Test.make ~count:40 ~name:"robust: k-resilience is monotone decreasing in k"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2; 2 |] (fun p ->
            let idx = (p.(0) * 4) + (p.(1) * 2) + p.(2) in
            [| payoffs.(idx mod 8); payoffs.((idx + 3) mod 8); payoffs.((idx + 5) mod 8) |])
      in
      let prof = B.Mixed.pure_profile g [| 0; 0; 0 |] in
      let r1 = R.is_k_resilient g prof ~k:1 in
      let r2 = R.is_k_resilient g prof ~k:2 in
      let r3 = R.is_k_resilient g prof ~k:3 in
      ((not r2) || r1) && ((not r3) || r2))

let immunity_monotone_property =
  QCheck.Test.make ~count:40 ~name:"robust: t-immunity is monotone decreasing in t"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2; 2 |] (fun p ->
            let idx = (p.(0) * 4) + (p.(1) * 2) + p.(2) in
            [| payoffs.(idx mod 8); payoffs.((idx + 1) mod 8); payoffs.((idx + 2) mod 8) |])
      in
      let prof = B.Mixed.pure_profile g [| 0; 0; 0 |] in
      let i1 = R.is_t_immune g prof ~t:1 in
      let i2 = R.is_t_immune g prof ~t:2 in
      (not i2) || i1)

let nash_iff_1resilient_property =
  QCheck.Test.make ~count:40 ~name:"robust: 1-resilient iff Nash (pure profiles)"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
            let idx = (p.(0) * 2) + p.(1) in
            [| payoffs.(idx); payoffs.(4 + idx) |])
      in
      let ok = ref true in
      B.Normal_form.iter_profiles g (fun p ->
          let prof = B.Mixed.pure_profile g p in
          if B.Nash.is_nash g prof <> R.is_k_resilient g prof ~k:1 then ok := false);
      !ok)

(* Random 3-player 2-action game from 8 payoff draws. *)
let random_game payoffs =
  B.Normal_form.create ~actions:[| 2; 2; 2 |] (fun p ->
      let idx = (p.(0) * 4) + (p.(1) * 2) + p.(2) in
      [| payoffs.(idx mod 8); payoffs.((idx + 3) mod 8); payoffs.((idx + 6) mod 8) |])

let parallel_agrees_with_serial_property =
  QCheck.Test.make ~count:40 ~name:"robust: ~jobs:4 verdict = serial verdict"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g = random_game payoffs in
      let ok = ref true in
      B.Normal_form.iter_profiles g (fun p ->
          let prof = B.Mixed.pure_profile g p in
          (* Full verdicts, not just booleans: the parallel scan must also
             report the same first violation as the serial one. *)
          if
            R.check_resilience ~jobs:4 g prof ~k:2 <> R.check_resilience g prof ~k:2
            || R.check_robustness ~jobs:4 g prof ~k:1 ~t:1
               <> R.check_robustness g prof ~k:1 ~t:1
            || R.is_k_resilient ~jobs:4 g prof ~k:3 <> R.is_k_resilient g prof ~k:3
          then ok := false);
      !ok)

let k1_resilience_is_unilateral_nash_property =
  QCheck.Test.make ~count:40 ~name:"robust: ~k:1 = unilateral-deviation (Nash) check"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g = random_game payoffs in
      let eps = 1e-9 in
      let unilaterally_stable prof =
        let base = Array.init 3 (B.Mixed.expected_payoff g prof) in
        let gain = ref false in
        for i = 0 to 2 do
          for a = 0 to 1 do
            if Oracles.Game.expected_payoff_vs_pure g prof ~player:i ~action:a > base.(i) +. eps
            then gain := true
          done
        done;
        not !gain
      in
      let ok = ref true in
      B.Normal_form.iter_profiles g (fun p ->
          let prof = B.Mixed.pure_profile g p in
          if R.is_k_resilient ~jobs:4 g prof ~k:1 <> unilaterally_stable prof then ok := false);
      !ok)

(* {1 Kernel-swap agreement}

   [Ref_impl] is the pre-optimization robustness checker: list-materialized
   joint assignments ([Combin.joint_assignments]), a fresh profile copy per
   assignment and full-scan [expected_payoff_naive] evaluations. The
   production kernel (stride-shifted table reads on pure profiles,
   support-product expectations on mixed ones) must agree with it
   verdict-for-verdict — including {e which} violation is reported. *)
module Ref_impl = struct
  let deviate g prof assignment =
    let deviated = Array.copy prof in
    List.iter
      (fun (i, a) -> deviated.(i) <- B.Mixed.pure ~num_actions:(B.Normal_form.num_actions g i) a)
      assignment;
    deviated

  let baseline g prof =
    Array.init (B.Normal_form.n_players g) (B.Mixed.expected_payoff_naive g prof)

  let coalition_traitor_pairs n ~k ~t =
    let coalitions = if k = 0 then [ [] ] else [] :: B.Combin.subsets_up_to n k in
    List.concat_map
      (fun coalition ->
        let rest = List.filter (fun i -> not (List.mem i coalition)) (List.init n Fun.id) in
        let rest_count = List.length rest in
        let traitor_sets =
          if t = 0 then [ [] ]
          else
            [] ::
            List.map
              (List.map (fun idx -> List.nth rest idx))
              (B.Combin.subsets_up_to rest_count (min t rest_count))
        in
        List.filter_map
          (fun traitors ->
            if coalition = [] && traitors = [] then None else Some (coalition, traitors))
          traitor_sets)
      coalitions

  let search_deviations g ~k ~t test =
    let n = B.Normal_form.n_players g in
    let dims = B.Normal_form.actions g in
    List.find_map
      (fun (coalition, traitors) ->
        List.find_map
          (fun assignment -> test ~coalition ~traitors assignment)
          (B.Combin.joint_assignments (coalition @ traitors) dims))
      (coalition_traitor_pairs n ~k ~t)

  let blocking_gain variant ~eps g base deviated coalition =
    let gains =
      List.map
        (fun i ->
          let after = B.Mixed.expected_payoff_naive g deviated i in
          (i, after, after > base.(i) +. eps))
        coalition
    in
    let blocked =
      match variant with
      | R.Strong -> List.exists (fun (_, _, gained) -> gained) gains
      | R.Weak -> gains <> [] && List.for_all (fun (_, _, gained) -> gained) gains
    in
    if blocked then
      let victim, after, _ = List.find (fun (_, _, gained) -> gained) gains in
      Some (victim, after)
    else None

  let verdict_of = function Some v -> R.Fails v | None -> R.Holds

  let check_immunity ?(eps = 1e-9) g prof ~t =
    let base = baseline g prof in
    let n = B.Normal_form.n_players g in
    verdict_of
      (search_deviations g ~k:0 ~t (fun ~coalition:_ ~traitors assignment ->
           let deviated = deviate g prof assignment in
           List.find_map
             (fun i ->
               if List.mem i traitors then None
               else
                 let after = B.Mixed.expected_payoff_naive g deviated i in
                 if after < base.(i) -. eps then
                   Some
                     { R.coalition = []; traitors; deviation = assignment; victim = i;
                       before = base.(i); after }
                 else None)
             (List.init n Fun.id)))

  let check_robustness ?(variant = R.Strong) ?(eps = 1e-9) g prof ~k ~t =
    let base = baseline g prof in
    match check_immunity ~eps g prof ~t with
    | R.Fails v -> R.Fails v
    | R.Holds ->
      verdict_of
        (search_deviations g ~k ~t (fun ~coalition ~traitors assignment ->
             let deviated = deviate g prof assignment in
             Option.map
               (fun (victim, after) ->
                 { R.coalition; traitors; deviation = assignment; victim;
                   before = base.(victim); after })
               (blocking_gain variant ~eps g base deviated coalition)))

  let check_resilience ?variant ?eps g prof ~k = check_robustness ?variant ?eps g prof ~k ~t:0
end

(* A mixed profile carved from the same payoff draw: negative entries
   zeroed (sparse supports), degenerate rows replaced by a point mass. *)
let mixed_profile_of_draw payoffs =
  Array.init 3 (fun i ->
      let s =
        Array.init 2 (fun a ->
            let x = payoffs.(((i * 2) + a + 1) mod 8) in
            if x < 0.0 then 0.0 else x)
      in
      let total = s.(0) +. s.(1) in
      if total = 0.0 then [| 1.0; 0.0 |] else [| s.(0) /. total; s.(1) /. total |])

let kernel_agreement_pure_property =
  QCheck.Test.make ~count:60
    ~name:"robust: kernel verdicts (incl. witness) = pre-swap reference, pure profiles"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g = random_game payoffs in
      let ok = ref true in
      B.Normal_form.iter_profiles g (fun p ->
          let prof = B.Mixed.pure_profile g p in
          if
            R.check_robustness g prof ~k:2 ~t:1 <> Ref_impl.check_robustness g prof ~k:2 ~t:1
            || R.check_resilience g prof ~k:2 <> Ref_impl.check_resilience g prof ~k:2
            || R.check_resilience ~variant:R.Weak g prof ~k:2
               <> Ref_impl.check_resilience ~variant:R.Weak g prof ~k:2
            || R.check_immunity g prof ~t:2 <> Ref_impl.check_immunity g prof ~t:2
          then ok := false);
      !ok)

let kernel_agreement_mixed_property =
  QCheck.Test.make ~count:60
    ~name:"robust: kernel verdicts (incl. witness) = pre-swap reference, mixed profiles"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g = random_game payoffs in
      let prof = mixed_profile_of_draw payoffs in
      R.check_robustness g prof ~k:2 ~t:1 = Ref_impl.check_robustness g prof ~k:2 ~t:1
      && R.check_resilience g prof ~k:2 = Ref_impl.check_resilience g prof ~k:2
      && R.check_immunity g prof ~t:1 = Ref_impl.check_immunity g prof ~t:1)

let test_sweep_jobs_threading () =
  (* The profile sweeps share one pool; parallel must equal serial exactly. *)
  let g = B.Games.bargaining 4 in
  let eq_serial = R.robust_pure_equilibria g ~k:2 ~t:0 in
  let eq_par = R.robust_pure_equilibria ~jobs:4 g ~k:2 ~t:0 in
  Alcotest.(check (list (array int))) "robust_pure_equilibria jobs=4 = serial" eq_serial eq_par;
  let target = Array.make 4 2.0 in
  let pun_serial = R.find_punishment g ~target ~budget:1 in
  let pun_par = R.find_punishment ~jobs:4 g ~target ~budget:1 in
  Alcotest.(check (option (array int))) "find_punishment jobs=4 = serial" pun_serial pun_par

let suite =
  [
    Alcotest.test_case "coordination: Nash, not 2-resilient" `Quick
      test_coordination_is_nash_not_2resilient;
    Alcotest.test_case "coordination: violation witness" `Quick test_coordination_violation_witness;
    Alcotest.test_case "coordination: max resilience" `Quick test_coordination_max_resilience;
    Alcotest.test_case "bargaining: resilient, not immune" `Quick
      test_bargaining_resilient_not_immune;
    Alcotest.test_case "bargaining: immunity witness" `Quick test_bargaining_immunity_witness;
    Alcotest.test_case "Nash = (1,0)-robust" `Quick test_nash_equals_10_robust;
    Alcotest.test_case "0-resilience trivial" `Quick test_zero_resilience_trivial;
    Alcotest.test_case "weak vs strong variants" `Quick test_weak_vs_strong_variant;
    Alcotest.test_case "constant game fully immune" `Quick test_immunity_of_constant_game;
    Alcotest.test_case "robust pure equilibria (PD)" `Quick test_robust_pure_equilibria_pd;
    Alcotest.test_case "robustness combines both" `Quick test_robustness_combines;
    Alcotest.test_case "punishment: bargaining" `Quick test_punishment_bargaining;
    Alcotest.test_case "punishment: impossible" `Quick test_punishment_impossible;
    Alcotest.test_case "mixed profile robustness" `Quick test_mixed_profile_robustness;
    Alcotest.test_case "sweeps: jobs threading" `Quick test_sweep_jobs_threading;
    QCheck_alcotest.to_alcotest kernel_agreement_pure_property;
    QCheck_alcotest.to_alcotest kernel_agreement_mixed_property;
    QCheck_alcotest.to_alcotest resilience_monotone_property;
    QCheck_alcotest.to_alcotest immunity_monotone_property;
    QCheck_alcotest.to_alcotest nash_iff_1resilient_property;
    QCheck_alcotest.to_alcotest parallel_agrees_with_serial_property;
    QCheck_alcotest.to_alcotest k1_resilience_is_unilateral_nash_property;
  ]
