module B = Beyond_nash

let check_float = Alcotest.(check (float 1e-9))

(* {1 Normal form} *)

let test_create_and_payoffs () =
  let g = B.Games.prisoners_dilemma in
  Alcotest.(check int) "players" 2 (B.Normal_form.n_players g);
  Alcotest.(check int) "actions" 2 (B.Normal_form.num_actions g 0);
  check_float "CC" 3.0 (B.Normal_form.payoff g [| 0; 0 |] 0);
  check_float "CD" (-5.0) (B.Normal_form.payoff g [| 0; 1 |] 0);
  check_float "DC" 5.0 (B.Normal_form.payoff g [| 1; 0 |] 0);
  check_float "DD" (-3.0) (B.Normal_form.payoff g [| 1; 1 |] 1)

let test_create_validation () =
  Alcotest.check_raises "empty action set"
    (Invalid_argument "Normal_form.create: empty action set") (fun () ->
      ignore (B.Normal_form.create ~actions:[| 2; 0 |] (fun _ -> [| 0.0; 0.0 |])));
  Alcotest.check_raises "payoff arity" (Invalid_argument "Normal_form.create: payoff arity")
    (fun () -> ignore (B.Normal_form.create ~actions:[| 2 |] (fun _ -> [| 0.0; 1.0 |])))

let test_bimatrix_roundtrip () =
  let g = B.Normal_form.of_bimatrix [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  check_float "a(1,0)" 3.0 (B.Normal_form.payoff g [| 1; 0 |] 0);
  check_float "b(0,1)" 6.0 (B.Normal_form.payoff g [| 0; 1 |] 1)

let test_profiles_count () =
  let g = B.Games.coordination_01 3 in
  Alcotest.(check int) "profiles" 8 (List.length (B.Normal_form.profiles g))

let test_zero_sum_detection () =
  Alcotest.(check bool) "roshambo zero-sum" true (B.Normal_form.is_zero_sum B.Games.roshambo);
  Alcotest.(check bool) "PD not zero-sum" false (B.Normal_form.is_zero_sum B.Games.prisoners_dilemma)

let test_symmetric_detection () =
  Alcotest.(check bool) "PD symmetric" true (B.Normal_form.is_symmetric_2p B.Games.prisoners_dilemma);
  Alcotest.(check bool) "BoS not symmetric" false (B.Normal_form.is_symmetric_2p B.Games.battle_of_sexes)

let test_map_payoffs () =
  let shifted = B.Normal_form.map_payoffs (fun _ u -> Array.map (fun x -> x +. 10.0) u) B.Games.prisoners_dilemma in
  check_float "shifted CC" 13.0 (B.Normal_form.payoff shifted [| 0; 0 |] 0)

(* Asymmetric action counts so every stride is distinct. *)
let asym_game () =
  B.Normal_form.create ~actions:[| 2; 3; 4 |] (fun p ->
      let x = float_of_int ((p.(0) * 100) + (p.(1) * 10) + p.(2)) in
      [| x; -.x; 2.0 *. x |])

let test_index_roundtrip () =
  let g = asym_game () in
  Alcotest.(check int) "table size" 24 (B.Normal_form.table_size g);
  B.Normal_form.iter_profiles g (fun p ->
      let idx = B.Normal_form.index_of g p in
      Alcotest.(check (array int)) "decode(encode p) = p" (Array.copy p)
        (B.Normal_form.profile_of_index g idx);
      check_float "payoff via index" (B.Normal_form.payoff g p 1)
        (B.Normal_form.payoff_by_index g idx 1))

let test_shift_index () =
  let g = asym_game () in
  let p = [| 0; 2; 1 |] in
  let idx = B.Normal_form.index_of g p in
  (* Re-point player 1 from 2 to 0: same as re-encoding the edited profile. *)
  let shifted = B.Normal_form.shift_index g idx ~player:1 ~from_:2 ~to_:0 in
  Alcotest.(check int) "shift = re-encode" (B.Normal_form.index_of g [| 0; 0; 1 |]) shifted;
  (* Composing m shifts applies an m-coordinate deviation. *)
  let shifted2 = B.Normal_form.shift_index g shifted ~player:0 ~from_:0 ~to_:1 in
  Alcotest.(check int) "two shifts" (B.Normal_form.index_of g [| 1; 0; 1 |]) shifted2

let test_payoff_row () =
  let g = B.Games.prisoners_dilemma in
  let idx = B.Normal_form.index_of g [| 1; 0 |] in
  let row = B.Normal_form.payoff_row g idx in
  check_float "row player" 5.0 row.(0);
  check_float "col player" (-5.0) row.(1)

let test_early_exit_predicates () =
  (* A counterexample in the very first cell must still be caught. *)
  let g =
    B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
        if p.(0) = 0 && p.(1) = 0 then [| 1.0; 1.0 |] else [| 1.0; -1.0 |])
  in
  Alcotest.(check bool) "not zero-sum (first profile)" false (B.Normal_form.is_zero_sum g);
  Alcotest.(check bool) "roshambo symmetric" true (B.Normal_form.is_symmetric_2p B.Games.roshambo)

(* {1 Mixed} *)

let test_mixed_pure () =
  let s = B.Mixed.pure ~num_actions:3 1 in
  check_float "mass on 1" 1.0 s.(1);
  check_float "mass on 0" 0.0 s.(0)

let test_mixed_validity () =
  Alcotest.(check bool) "uniform valid" true (B.Mixed.is_valid (B.Mixed.uniform 4));
  Alcotest.(check bool) "negative invalid" false (B.Mixed.is_valid [| -0.5; 1.5 |]);
  Alcotest.(check bool) "not summing" false (B.Mixed.is_valid [| 0.3; 0.3 |])

let test_expected_payoff_uniform_mp () =
  let prof = B.Mixed.uniform_profile B.Games.matching_pennies in
  check_float "uniform MP = 0" 0.0 (B.Mixed.expected_payoff B.Games.matching_pennies prof 0)

let test_expected_payoff_matches_pure () =
  let g = B.Games.prisoners_dilemma in
  let prof = B.Mixed.pure_profile g [| 0; 1 |] in
  check_float "pure via mixed" (-5.0) (B.Mixed.expected_payoff g prof 0)

let test_expected_vs_pure_deviation () =
  let g = B.Games.prisoners_dilemma in
  let prof = B.Mixed.pure_profile g [| 0; 0 |] in
  check_float "deviate to D" 5.0 (B.Nash.best_response_value g prof ~player:0);
  Alcotest.(check (list int)) "D is the best response" [ 1 ]
    (B.Nash.pure_best_responses g prof ~player:0)

let test_outcome_dist () =
  let g = B.Games.matching_pennies in
  let d = B.Mixed.outcome_dist g (B.Mixed.uniform_profile g) in
  Alcotest.(check int) "4 outcomes" 4 (List.length (B.Dist.support d))

let test_support () =
  Alcotest.(check (list int)) "support" [ 0; 2 ] (B.Mixed.support [| 0.5; 0.0; 0.5 |])

let test_point_mass () =
  Alcotest.(check (option int)) "pure 1" (Some 1) (B.Mixed.point_mass (B.Mixed.pure ~num_actions:3 1));
  Alcotest.(check (option int)) "mixed" None (B.Mixed.point_mass [| 0.5; 0.5 |]);
  Alcotest.(check (option int)) "almost pure" None (B.Mixed.point_mass [| 1e-12; 1.0 -. 1e-12 |]);
  let g = B.Games.prisoners_dilemma in
  Alcotest.(check (option (array int))) "pure profile" (Some [| 1; 0 |])
    (B.Mixed.pure_actions (B.Mixed.pure_profile g [| 1; 0 |]));
  Alcotest.(check (option (array int))) "uniform profile" None
    (B.Mixed.pure_actions (B.Mixed.uniform_profile g))

(* {2 Support-product kernel vs full-scan reference}

   [expected_payoff] must agree with [expected_payoff_naive] {e exactly} —
   the support product performs the same multiplications and additions in
   the same order, so the comparison below is on raw float equality, not an
   epsilon. *)

(* Random 3-player 2×3×2 game plus a mixed profile carved from the same
   draw: entries below the activity threshold are zeroed, exercising sparse
   supports (and occasionally empty ones, where both sides must return 0). *)
let kernel_case_of_draw payoffs =
  let g =
    B.Normal_form.create ~actions:[| 2; 3; 2 |] (fun p ->
        let idx = (p.(0) * 6) + (p.(1) * 2) + p.(2) in
        [| payoffs.(idx); payoffs.((idx + 7) mod 12); payoffs.((idx + 3) mod 12) |])
  in
  let dims = [| 2; 3; 2 |] in
  let prof =
    Array.init 3 (fun i ->
        let s =
          Array.init dims.(i) (fun a ->
              let x = payoffs.(((i * 3) + a + 5) mod 12) in
              if x < 0.0 then 0.0 else x)
        in
        if Array.for_all (( = ) 0.0) s then s.(0) <- 1.0;
        s)
  in
  (g, prof)

let payoff_kernel_agreement_property =
  QCheck.Test.make ~count:200 ~name:"mixed: expected_payoff = expected_payoff_naive (bitwise)"
    QCheck.(array_of_size (Gen.return 12) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g, prof = kernel_case_of_draw payoffs in
      let agree p =
        List.for_all
          (fun i -> B.Mixed.expected_payoff g p i = B.Mixed.expected_payoff_naive g p i)
          [ 0; 1; 2 ]
      in
      (* the random sparse profile, the uniform profile and every pure
         profile (the O(1) fast path) *)
      let ok = ref (agree prof && agree (B.Mixed.uniform_profile g)) in
      B.Normal_form.iter_profiles g (fun p ->
          if not (agree (B.Mixed.pure_profile g p)) then ok := false);
      !ok)

let outcome_dist_support_property =
  QCheck.Test.make ~count:100 ~name:"mixed: outcome_dist enumerates exactly the support product"
    QCheck.(array_of_size (Gen.return 12) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g, prof = kernel_case_of_draw payoffs in
      let expected = ref [] in
      B.Normal_form.iter_profiles g (fun p ->
          let pr = Array.to_list (Array.mapi (fun i a -> prof.(i).(a)) p)
                   |> List.fold_left ( *. ) 1.0 in
          if pr > 0.0 then expected := (Array.copy p, pr) :: !expected);
      let total = List.fold_left (fun acc (_, pr) -> acc +. pr) 0.0 !expected in
      let d = B.Mixed.outcome_dist g prof in
      List.length (B.Dist.support d) = List.length !expected
      && List.for_all
           (fun (p, pr) -> Float.abs (B.Dist.mass d p -. (pr /. total)) <= 1e-12)
           !expected)

(* {2 Flat Bigarray storage}

   The flat tables are the single source of payoff truth, so pin them
   against the {e generating function} (not against [payoff], which reads
   the same tables): every stored entry must be exactly the float the
   creation closure produced. *)

let flat_table_matches_generator_property =
  QCheck.Test.make ~count:100 ~name:"flat: stored tables equal the generating function (bitwise)"
    QCheck.(array_of_size (Gen.return 12) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g, _ = kernel_case_of_draw payoffs in
      let ok = ref true in
      B.Normal_form.iter_profiles g (fun p ->
          let idx = B.Normal_form.index_of g p in
          let i12 = (p.(0) * 6) + (p.(1) * 2) + p.(2) in
          let expected =
            [| payoffs.(i12); payoffs.((i12 + 7) mod 12); payoffs.((i12 + 3) mod 12) |]
          in
          for i = 0 to 2 do
            if Bigarray.Array1.get (B.Normal_form.Flat.table g i) idx <> expected.(i) then
              ok := false
          done);
      !ok)

(* Random 3×3 two-player game plus a sparse non-negative profile from the
   same draw, for the 2-player flat fast paths. *)
let two_player_case_of_draw payoffs =
  let g =
    B.Normal_form.of_bimatrix
      (Array.init 3 (fun i -> Array.init 3 (fun j -> payoffs.(((3 * i) + j) mod 18))))
      (Array.init 3 (fun i -> Array.init 3 (fun j -> payoffs.(((3 * i) + j + 7) mod 18))))
  in
  let prof =
    Array.init 2 (fun i ->
        let s =
          Array.init 3 (fun a ->
              let x = payoffs.(((i * 5) + a + 11) mod 18) in
              if x < 0.0 then 0.0 else x)
        in
        if Array.for_all (( = ) 0.0) s then s.(0) <- 1.0;
        s)
  in
  (g, prof)

(* {1 Nash} *)

let test_pd_unique_pure_nash () =
  Alcotest.(check int) "one pure NE" 1 (List.length (B.Nash.pure_equilibria B.Games.prisoners_dilemma));
  Alcotest.(check bool) "it is DD" true
    (B.Nash.is_pure_nash B.Games.prisoners_dilemma [| 1; 1 |])

let test_bos_equilibria () =
  let eqs = B.Nash.support_enumeration_2p B.Games.battle_of_sexes in
  Alcotest.(check int) "3 equilibria" 3 (List.length eqs);
  List.iter
    (fun p -> Alcotest.(check bool) "all are Nash" true (B.Nash.is_nash B.Games.battle_of_sexes p))
    eqs

let test_mp_unique_mixed () =
  let eqs = B.Nash.support_enumeration_2p B.Games.matching_pennies in
  Alcotest.(check int) "1 equilibrium" 1 (List.length eqs);
  match eqs with
  | [ p ] -> check_float "uniform" 0.5 p.(0).(0)
  | _ -> Alcotest.fail "expected singleton"

let test_roshambo_uniform () =
  let eqs = B.Nash.support_enumeration_2p B.Games.roshambo in
  Alcotest.(check int) "1 equilibrium" 1 (List.length eqs);
  match eqs with
  | [ p ] -> check_float "1/3" (1.0 /. 3.0) p.(0).(0)
  | _ -> Alcotest.fail "expected singleton"

let test_regret () =
  let g = B.Games.prisoners_dilemma in
  let cc = B.Mixed.pure_profile g [| 0; 0 |] in
  check_float "CC regret = 2" 2.0 (B.Nash.regret g cc ~player:0);
  let dd = B.Mixed.pure_profile g [| 1; 1 |] in
  check_float "DD regret = 0" 0.0 (B.Nash.regret g dd ~player:0)

let test_coordination_01_nash () =
  let g = B.Games.coordination_01 4 in
  Alcotest.(check bool) "all-0 is Nash" true (B.Nash.is_pure_nash g (Array.make 4 0))

let test_stag_hunt_equilibria () =
  let eqs = B.Nash.pure_equilibria B.Games.stag_hunt in
  Alcotest.(check int) "two pure NE" 2 (List.length eqs)

let nash_regret_nonneg_property =
  QCheck.Test.make ~count:100 ~name:"nash: regret is non-negative on random 2x2 games"
    QCheck.(array_of_size (Gen.return 8) (float_range (-5.0) 5.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
            let idx = (p.(0) * 2) + p.(1) in
            [| payoffs.(idx); payoffs.(4 + idx) |])
      in
      let prof = B.Mixed.uniform_profile g in
      B.Nash.regret g prof ~player:0 >= 0.0 && B.Nash.regret g prof ~player:1 >= 0.0)

let support_enum_finds_nash_property =
  QCheck.Test.make ~count:50 ~name:"nash: support enumeration outputs are equilibria"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
            let idx = (p.(0) * 2) + p.(1) in
            [| payoffs.(idx); payoffs.(4 + idx) |])
      in
      List.for_all (fun p -> B.Nash.is_nash ~eps:1e-5 g p) (B.Nash.support_enumeration_2p g))

(* {1 Dominance} *)

let test_pd_dominance () =
  Alcotest.(check bool) "D dominates C" true
    (B.Dominance.dominates B.Games.prisoners_dilemma ~player:0 1 0);
  match B.Dominance.solves_by_dominance B.Games.prisoners_dilemma with
  | Some p -> Alcotest.(check (array int)) "solves to DD" [| 1; 1 |] p
  | None -> Alcotest.fail "PD is dominance-solvable"

let test_weak_dominance () =
  (* A game where weak but not strict dominance applies. *)
  let g = B.Normal_form.of_bimatrix [| [| 1.0; 1.0 |]; [| 1.0; 0.0 |] |] [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.(check bool) "not strict" false (B.Dominance.dominates ~mode:B.Dominance.Strict g ~player:0 0 1);
  Alcotest.(check bool) "weak" true (B.Dominance.dominates ~mode:B.Dominance.Weak g ~player:0 0 1)

let test_iterated_elimination () =
  (* 2x3 game solvable by iterated strict dominance. *)
  let a = [| [| 1.0; 1.0; 10.0 |]; [| 0.0; 0.0; 13.0 |] |] in
  let b = [| [| 3.0; 2.0; 1.0 |]; [| 3.0; 2.0; 1.0 |] |] in
  let g = B.Normal_form.of_bimatrix a b in
  let reduced, surviving = B.Dominance.iterated_elimination g in
  Alcotest.(check int) "column survivor" 1 (List.length surviving.(1));
  Alcotest.(check bool) "reduced is 2x1 or smaller" true (B.Normal_form.num_actions reduced 1 = 1)

let test_roshambo_no_dominance () =
  Alcotest.(check (list int)) "no dominated actions" []
    (B.Dominance.dominated_actions B.Games.roshambo ~player:0)

(* {1 Zero sum} *)

let test_mp_value () =
  match B.Zero_sum.value B.Games.matching_pennies with
  | None -> Alcotest.fail "MP has a value"
  | Some (v, row, col) ->
    check_float "value 0" 0.0 v;
    check_float "row uniform" 0.5 row.(0);
    check_float "col uniform" 0.5 col.(0)

let test_roshambo_value () =
  match B.Zero_sum.value B.Games.roshambo with
  | None -> Alcotest.fail "roshambo has a value"
  | Some (v, row, _) ->
    check_float "value 0" 0.0 v;
    check_float "row 1/3" (1.0 /. 3.0) row.(1)

let test_value_none_for_nonzero_sum () =
  Alcotest.(check bool) "PD has no zero-sum value" true
    (B.Zero_sum.value B.Games.prisoners_dilemma = None)

let test_asymmetric_zero_sum () =
  (* Row player strictly prefers row 0; value = min of row 0 = 1. *)
  let a = [| [| 2.0; 1.0 |]; [| 0.0; 0.5 |] |] in
  let g = B.Normal_form.of_bimatrix a (Array.map (Array.map Float.neg) a) in
  match B.Zero_sum.value g with
  | None -> Alcotest.fail "zero-sum"
  | Some (v, _, _) -> check_float "saddle value" 1.0 v

let test_maxmin_pure () =
  check_float "PD security" (-3.0) (B.Zero_sum.maxmin_pure B.Games.prisoners_dilemma ~player:0);
  check_float "bargaining security" 1.0 (B.Zero_sum.maxmin_pure (B.Games.bargaining 3) ~player:0)

let test_minmax_correlated () =
  let v, s = B.Zero_sum.minmax_correlated (B.Games.bargaining 3) ~player:0 in
  check_float "punishment level" 1.0 v;
  Alcotest.(check bool) "strategy valid" true (B.Mixed.is_valid s)

let zero_sum_value_bounds_property =
  QCheck.Test.make ~count:50 ~name:"zero-sum: value between min and max payoffs"
    QCheck.(array_of_size (Gen.return 9) (float_range (-5.0) 5.0))
    (fun payoffs ->
      let a = Array.init 3 (fun i -> Array.init 3 (fun j -> payoffs.((i * 3) + j))) in
      let g = B.Normal_form.of_bimatrix a (Array.map (Array.map Float.neg) a) in
      match B.Zero_sum.value g with
      | None -> false
      | Some (v, _, _) ->
        let all = Array.to_list (Array.concat (Array.to_list a)) in
        let lo = List.fold_left min infinity all and hi = List.fold_left max neg_infinity all in
        v >= lo -. 1e-6 && v <= hi +. 1e-6)

(* [Nash]'s evaluators run on the flat kernels ([eu2]/[eu2_dev] for two
   players, [Nash.Kernel] otherwise); they must agree with the all-[Mixed]
   reference {e bitwise} — same products, same accumulation order — on
   sparse, uniform and pure profiles alike. *)
let max_regret_kernel_agreement_property =
  QCheck.Test.make ~count:200 ~name:"nash: max_regret = max_regret_naive (bitwise, flat kernel)"
    QCheck.(array_of_size (Gen.return 18) (float_range (-4.0) 4.0))
    (fun payoffs ->
      let g, prof = two_player_case_of_draw payoffs in
      let agree p = B.Nash.max_regret g p = Oracles.Game.max_regret_naive g p in
      let ok = ref (agree prof && agree (B.Mixed.uniform_profile g)) in
      B.Normal_form.iter_profiles g (fun p ->
          if not (agree (B.Mixed.pure_profile g p)) then ok := false);
      !ok)

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* An n-player game (n = 1..5, 1–3 actions each) and a profile whose
   strategies are point masses, empty supports or sparse weights. Tiny
   weights make some support products underflow to 0.0 and infinite
   payoffs make a skipped zero-probability profile visible (0 × ∞ is
   NaN). *)
let n_player_case =
  let open QCheck.Gen in
  let* n = int_range 1 5 in
  let* acts = array_size (return n) (int_range 1 3) in
  let size = Array.fold_left ( * ) 1 acts in
  let* pay =
    array_size
      (return (size * n))
      (frequency
         [ (12, float_range (-4.0) 4.0); (1, oneofl [ Float.infinity; Float.neg_infinity ]) ])
  in
  let strategy m =
    frequency
      [
        (2, map (fun a -> B.Mixed.pure ~num_actions:m a) (int_range 0 (m - 1)));
        (1, return (Array.make m 0.0));
        ( 4,
          array_size (return m)
            (frequency [ (2, return 0.0); (1, return 1e-200); (4, float_range 0.05 1.0) ]) );
      ]
  in
  let* prof = flatten_a (Array.map strategy acts) in
  let g =
    B.Normal_form.create ~actions:acts (fun p ->
        let idx = ref 0 in
        Array.iteri (fun i a -> idx := (!idx * acts.(i)) + a) p;
        Array.init n (fun i -> pay.((!idx * n) + i)))
  in
  return (g, prof)

let n_player_max_regret_agreement_property =
  QCheck.Test.make ~count:300 ~name:"nash: max_regret = max_regret_naive (bitwise, n = 1..5)"
    (QCheck.make
       ~print:(fun (g, prof) ->
         Format.asprintf "%a@ %a" B.Normal_form.pp g B.Mixed.pp_profile prof)
       n_player_case)
    (fun (g, prof) ->
      let module O = Oracles.Game in
      let agree p =
        bits_eq (B.Nash.max_regret g p) (O.max_regret_naive g p)
        && List.for_all
             (fun player ->
               let devs = O.deviation_values g p ~player in
               let br = Array.fold_left (fun b v -> if v > b then v else b) neg_infinity devs in
               bits_eq (B.Nash.best_response_value g p ~player) br
               && bits_eq (B.Nash.regret g p ~player)
                    (Float.max 0.0 (br -. B.Mixed.expected_payoff g p player))
               && B.Nash.pure_best_responses g p ~player = O.pure_best_responses g p ~player)
             (List.init (B.Normal_form.n_players g) Fun.id)
      in
      let ok = ref (agree prof && agree (B.Mixed.uniform_profile g)) in
      B.Normal_form.iter_profiles g (fun p ->
          if not (agree (B.Mixed.pure_profile g p)) then ok := false);
      !ok)

(* {1 Learning} *)

let test_fictitious_play_mp () =
  let trace = B.Learning.fictitious_play ~rounds:2000 B.Games.matching_pennies in
  Alcotest.(check bool) "low regret" true (trace.B.Learning.final_regret < 0.05)

let test_replicator_pd () =
  let trace = B.Learning.replicator ~rounds:2000 B.Games.prisoners_dilemma in
  (* Replicator should converge toward defection. *)
  Alcotest.(check bool) "defection takes over" true (trace.B.Learning.profile.(0).(1) > 0.95)

let test_best_response_iteration () =
  match B.Learning.best_response_iteration ~max_rounds:50 B.Games.stag_hunt with
  | None -> Alcotest.fail "should converge"
  | Some p -> Alcotest.(check bool) "is Nash" true (B.Nash.is_pure_nash B.Games.stag_hunt p)

let test_fictitious_play_bos_converges_somewhere () =
  let trace = B.Learning.fictitious_play ~rounds:500 B.Games.battle_of_sexes in
  Alcotest.(check bool) "profile valid" true
    (Array.for_all B.Mixed.is_valid trace.B.Learning.profile)

let trace_eq (a : B.Learning.trace) (b : B.Learning.trace) =
  a.B.Learning.profile = b.B.Learning.profile
  && a.B.Learning.rounds = b.B.Learning.rounds
  && a.B.Learning.final_regret = b.B.Learning.final_regret

(* The incremental dynamics must replay the naive references {e bitwise}:
   cached expected utilities are only reused when the opponent mixtures are
   bitwise-unchanged, so no trace field may drift. Covers the 2-player flat
   fast path and the generic n-player path. *)
let learning_incremental_agreement_property =
  QCheck.Test.make ~count:50 ~name:"learning: incremental = naive references (bitwise traces)"
    QCheck.(array_of_size (Gen.return 18) (float_range (-4.0) 4.0))
    (fun payoffs ->
      let g2, _ = two_player_case_of_draw payoffs in
      let g3, _ = kernel_case_of_draw (Array.sub payoffs 0 12) in
      List.for_all
        (fun g ->
          trace_eq
            (B.Learning.fictitious_play ~rounds:60 g)
            (Oracles.Game.fictitious_play_naive ~rounds:60 g)
          && trace_eq
               (B.Learning.replicator ~rounds:60 g)
               (Oracles.Game.replicator_naive ~rounds:60 g))
        [ g2; g3 ])

let test_replicator_tol_early_stop () =
  (* Uniform matching pennies is a replicator fixed point with zero regret:
     with a tolerance the run must stop after the very first round. *)
  let trace = B.Learning.replicator ~tol:1e-9 ~rounds:500 B.Games.matching_pennies in
  Alcotest.(check int) "stops after round 1" 1 trace.B.Learning.rounds;
  Alcotest.(check bool) "regret within tol" true (trace.B.Learning.final_regret <= 1e-9);
  let full = B.Learning.replicator ~rounds:500 B.Games.matching_pennies in
  Alcotest.(check int) "without tol the horizon is exhausted" 500 full.B.Learning.rounds

let test_fictitious_play_tol_early_stop () =
  let trace = B.Learning.fictitious_play ~tol:0.2 ~rounds:5000 B.Games.prisoners_dilemma in
  Alcotest.(check bool) "stopped before the horizon" true (trace.B.Learning.rounds < 5000);
  Alcotest.(check bool) "regret within tol" true (trace.B.Learning.final_regret <= 0.2)

let suite =
  [
    Alcotest.test_case "normal form: payoffs" `Quick test_create_and_payoffs;
    Alcotest.test_case "normal form: validation" `Quick test_create_validation;
    Alcotest.test_case "normal form: bimatrix" `Quick test_bimatrix_roundtrip;
    Alcotest.test_case "normal form: profiles" `Quick test_profiles_count;
    Alcotest.test_case "normal form: zero-sum detect" `Quick test_zero_sum_detection;
    Alcotest.test_case "normal form: symmetric detect" `Quick test_symmetric_detection;
    Alcotest.test_case "normal form: map payoffs" `Quick test_map_payoffs;
    Alcotest.test_case "normal form: index roundtrip" `Quick test_index_roundtrip;
    Alcotest.test_case "normal form: shift index" `Quick test_shift_index;
    Alcotest.test_case "normal form: payoff row" `Quick test_payoff_row;
    Alcotest.test_case "normal form: early-exit predicates" `Quick test_early_exit_predicates;
    Alcotest.test_case "mixed: pure" `Quick test_mixed_pure;
    Alcotest.test_case "mixed: validity" `Quick test_mixed_validity;
    Alcotest.test_case "mixed: uniform MP" `Quick test_expected_payoff_uniform_mp;
    Alcotest.test_case "mixed: pure profile payoff" `Quick test_expected_payoff_matches_pure;
    Alcotest.test_case "mixed: pure deviation" `Quick test_expected_vs_pure_deviation;
    Alcotest.test_case "mixed: outcome dist" `Quick test_outcome_dist;
    Alcotest.test_case "mixed: support" `Quick test_support;
    Alcotest.test_case "mixed: point mass" `Quick test_point_mass;
    QCheck_alcotest.to_alcotest payoff_kernel_agreement_property;
    QCheck_alcotest.to_alcotest outcome_dist_support_property;
    Alcotest.test_case "nash: PD unique" `Quick test_pd_unique_pure_nash;
    Alcotest.test_case "nash: BoS three equilibria" `Quick test_bos_equilibria;
    Alcotest.test_case "nash: MP unique mixed" `Quick test_mp_unique_mixed;
    Alcotest.test_case "nash: roshambo uniform" `Quick test_roshambo_uniform;
    Alcotest.test_case "nash: regret values" `Quick test_regret;
    Alcotest.test_case "nash: coordination all-0" `Quick test_coordination_01_nash;
    Alcotest.test_case "nash: stag hunt" `Quick test_stag_hunt_equilibria;
    QCheck_alcotest.to_alcotest nash_regret_nonneg_property;
    QCheck_alcotest.to_alcotest support_enum_finds_nash_property;
    Alcotest.test_case "dominance: PD" `Quick test_pd_dominance;
    Alcotest.test_case "dominance: weak vs strict" `Quick test_weak_dominance;
    Alcotest.test_case "dominance: iterated" `Quick test_iterated_elimination;
    Alcotest.test_case "dominance: roshambo none" `Quick test_roshambo_no_dominance;
    Alcotest.test_case "zero-sum: MP" `Quick test_mp_value;
    Alcotest.test_case "zero-sum: roshambo" `Quick test_roshambo_value;
    Alcotest.test_case "zero-sum: non-zero-sum" `Quick test_value_none_for_nonzero_sum;
    Alcotest.test_case "zero-sum: saddle" `Quick test_asymmetric_zero_sum;
    Alcotest.test_case "zero-sum: maxmin pure" `Quick test_maxmin_pure;
    Alcotest.test_case "zero-sum: minmax correlated" `Quick test_minmax_correlated;
    QCheck_alcotest.to_alcotest zero_sum_value_bounds_property;
    Alcotest.test_case "learning: fictitious play MP" `Slow test_fictitious_play_mp;
    Alcotest.test_case "learning: replicator PD" `Slow test_replicator_pd;
    Alcotest.test_case "learning: best response iteration" `Quick test_best_response_iteration;
    Alcotest.test_case "learning: fictitious play BoS" `Quick test_fictitious_play_bos_converges_somewhere;
    Alcotest.test_case "learning: replicator ?tol early stop" `Quick test_replicator_tol_early_stop;
    Alcotest.test_case "learning: fictitious play ?tol early stop" `Quick
      test_fictitious_play_tol_early_stop;
    QCheck_alcotest.to_alcotest flat_table_matches_generator_property;
    QCheck_alcotest.to_alcotest max_regret_kernel_agreement_property;
    QCheck_alcotest.to_alcotest n_player_max_regret_agreement_property;
    QCheck_alcotest.to_alcotest learning_incremental_agreement_property;
  ]
