module B = Beyond_nash
module R = B.Rationalizable
module P = B.Parse

(* {1 Rationalizability} *)

let test_pd_rationalizable () =
  let surviving = R.rationalizable B.Games.prisoners_dilemma in
  Alcotest.(check (list int)) "row: defect only" [ 1 ] surviving.(0);
  Alcotest.(check (list int)) "col: defect only" [ 1 ] surviving.(1);
  Alcotest.(check bool) "dominance solvable" true
    (R.is_dominance_solvable B.Games.prisoners_dilemma)

let test_roshambo_all_rationalizable () =
  let surviving = R.rationalizable B.Games.roshambo in
  Alcotest.(check (list int)) "all survive" [ 0; 1; 2 ] surviving.(0)

let test_mixed_dominance_beats_pure () =
  (* Classic example: the middle action is not dominated by any pure
     action, but a 50/50 mix of the outer ones dominates it. Row payoffs:
     top: 4/0, middle: 1.5/1.5, bottom: 0/4. *)
  let a = [| [| 4.0; 0.0 |]; [| 1.5; 1.5 |]; [| 0.0; 4.0 |] |] in
  let b = [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let g = B.Normal_form.of_bimatrix a b in
  Alcotest.(check bool) "no pure dominance" true
    (not (B.Dominance.dominates g ~player:0 0 1) && not (B.Dominance.dominates g ~player:0 2 1));
  match R.mixed_dominates g ~player:0 1 with
  | Some mix ->
    Alcotest.(check (float 1e-6)) "half top" 0.5 mix.(0);
    Alcotest.(check (float 1e-6)) "no middle" 0.0 mix.(1);
    Alcotest.(check (float 1e-6)) "half bottom" 0.5 mix.(2)
  | None -> Alcotest.fail "mixed dominance should be found"

let test_mixed_dominance_none_when_best_response () =
  (* In battle of the sexes every action is a best response to something. *)
  let g = B.Games.battle_of_sexes in
  Alcotest.(check bool) "no dominated action" true
    (R.mixed_dominates g ~player:0 0 = None && R.mixed_dominates g ~player:0 1 = None)

let rationalizable_contains_nash_support =
  QCheck.Test.make ~count:30 ~name:"rationalizable: contains every Nash support"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
            let idx = (p.(0) * 2) + p.(1) in
            [| payoffs.(idx); payoffs.(4 + idx) |])
      in
      let surviving = R.rationalizable g in
      List.for_all
        (fun prof ->
          List.for_all (fun a -> List.mem a surviving.(0)) (B.Mixed.support prof.(0))
          && List.for_all (fun a -> List.mem a surviving.(1)) (B.Mixed.support prof.(1)))
        (B.Nash.support_enumeration_2p g))

(* {1 Parse} *)

(* The top-down scan must remove, pass by pass, exactly the action the
   every-LP loop removes. Small integer payoffs on 2- and 3-player games
   with 2–4 actions give ties and several dominated actions per pass. *)
let rationalizable_oracle_property =
  QCheck.Test.make ~count:150 ~name:"rationalizable: top-down scan = every-LP oracle"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = B.Prng.create seed in
      let n = 2 + B.Prng.int rng 2 in
      let actions = Array.init n (fun _ -> 2 + B.Prng.int rng (if n = 2 then 3 else 2)) in
      let g =
        B.Normal_form.create ~actions (fun _ ->
            Array.init n (fun _ -> float_of_int (B.Prng.int rng 7 - 3)))
      in
      let module O = Oracles.Rationalizable in
      R.rationalizable g = O.rationalizable g
      && List.for_all
           (fun player ->
             List.for_all
               (fun a -> R.mixed_dominates g ~player a = O.mixed_dominates g ~player a)
               (List.init actions.(player) Fun.id))
           (List.init n Fun.id))

let test_parse_pd () =
  let g = P.bimatrix "3,3 0,5 | 5,0 1,1" in
  Alcotest.(check int) "2x2" 2 (B.Normal_form.num_actions g 0);
  Alcotest.(check (float 1e-9)) "payoff" 5.0 (B.Normal_form.payoff g [| 1; 0 |] 0);
  Alcotest.(check bool) "same as canonical" true
    (B.Nash.is_pure_nash g [| 1; 1 |])

let test_parse_rectangular () =
  let g = P.bimatrix "1,0 2,0 3,0 | 4,0 5,0 6,0" in
  Alcotest.(check int) "rows" 2 (B.Normal_form.num_actions g 0);
  Alcotest.(check int) "cols" 3 (B.Normal_form.num_actions g 1)

let test_parse_whitespace_and_floats () =
  let g = P.bimatrix "  1.5,-2.5   0,0 |  -1,3   2,2  " in
  Alcotest.(check (float 1e-9)) "float payoff" (-2.5) (B.Normal_form.payoff g [| 0; 0 |] 1)

let test_parse_errors () =
  Alcotest.(check bool) "ragged" true (P.bimatrix_opt "1,1 2,2 | 3,3" = None);
  Alcotest.(check bool) "bad number" true (P.bimatrix_opt "a,b" = None);
  Alcotest.(check bool) "missing payoff" true (P.bimatrix_opt "1 2 | 3 4" = None);
  Alcotest.(check bool) "empty" true (P.bimatrix_opt "" = None)

let parse_roundtrip_property =
  QCheck.Test.make ~count:50 ~name:"parse: render-free roundtrip on random 2x2 ints"
    QCheck.(array_of_size (Gen.return 8) (int_range (-9) 9))
    (fun v ->
      let spec =
        Printf.sprintf "%d,%d %d,%d | %d,%d %d,%d" v.(0) v.(4) v.(1) v.(5) v.(2) v.(6) v.(3)
          v.(7)
      in
      match P.bimatrix_opt spec with
      | None -> false
      | Some g ->
        B.Normal_form.payoff g [| 0; 0 |] 0 = float_of_int v.(0)
        && B.Normal_form.payoff g [| 1; 1 |] 1 = float_of_int v.(7))

(* {1 Scrip symmetric equilibrium} *)

let test_scrip_symmetric_equilibrium () =
  (* Long runs keep the Monte-Carlo best-response map stable enough for the
     iteration to reach a fixed point. *)
  let rng = B.Prng.create 77 in
  let params = { (B.Scrip.default_params ~n:30) with B.Scrip.rounds = 20_000 } in
  match
    B.Scrip.symmetric_equilibrium rng params ~money_per_agent:2.0
      ~candidates:[ 2; 3; 5; 8; 12 ]
  with
  | Some k -> Alcotest.(check bool) "interior equilibrium threshold" true (k >= 2 && k <= 12)
  | None -> Alcotest.fail "best-response iteration should find a fixed point here"

let suite =
  [
    Alcotest.test_case "rationalizable: PD" `Quick test_pd_rationalizable;
    Alcotest.test_case "rationalizable: roshambo" `Quick test_roshambo_all_rationalizable;
    Alcotest.test_case "rationalizable: mixed beats pure" `Quick test_mixed_dominance_beats_pure;
    Alcotest.test_case "rationalizable: best responses survive" `Quick
      test_mixed_dominance_none_when_best_response;
    QCheck_alcotest.to_alcotest rationalizable_contains_nash_support;
    QCheck_alcotest.to_alcotest rationalizable_oracle_property;
    Alcotest.test_case "parse: PD" `Quick test_parse_pd;
    Alcotest.test_case "parse: rectangular" `Quick test_parse_rectangular;
    Alcotest.test_case "parse: whitespace/floats" `Quick test_parse_whitespace_and_floats;
    Alcotest.test_case "parse: errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest parse_roundtrip_property;
    Alcotest.test_case "scrip: symmetric equilibrium" `Slow test_scrip_symmetric_equilibrium;
  ]
