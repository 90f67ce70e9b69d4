module B = Beyond_nash
module MG = B.Machine_game
module P = B.Primality

let check_float = Alcotest.(check (float 1e-9))

(* {1 Machine} *)

let test_deterministic_machine () =
  let m = B.Machine.deterministic "inc" (fun x -> x + 1) in
  Alcotest.(check bool) "point mass" true (B.Dist.support (m.B.Machine.act 4) = [ 5 ]);
  check_float "default complexity" 1.0 (m.B.Machine.complexity 0);
  Alcotest.(check bool) "not randomized" false m.B.Machine.randomized

let test_randomizing_machine () =
  let m = B.Machine.randomizing "coin" (fun _ -> B.Dist.uniform [ 0; 1 ]) in
  check_float "default complexity 2" 2.0 (m.B.Machine.complexity 0);
  Alcotest.(check bool) "randomized" true m.B.Machine.randomized

(* {1 Machine_game} *)

let simple_mg charge =
  (* Both players pick "low" (action 0, complexity 1) or "high" (action 1,
     complexity 3); base payoff = own action value. *)
  let low = B.Machine.constant "low" ~complexity:(fun _ -> 1.0) 0 in
  let high = B.Machine.constant "high" ~complexity:(fun _ -> 3.0) 1 in
  MG.simple
    ~machines:[| [| low; high |]; [| low; high |] |]
    ~base:(fun acts -> [| float_of_int acts.(0); float_of_int acts.(1) |])
    ~charge:[| charge; charge |]

let test_expected_utility () =
  let g = simple_mg 0.0 in
  check_float "high action free computation" 1.0 (MG.expected_utility g ~choice:[| 1; 0 |] ~player:0);
  let g' = simple_mg 1.0 in
  (* high: 1 - 3 = -2; low: 0 - 1 = -1. *)
  check_float "charged" (-2.0) (MG.expected_utility g' ~choice:[| 1; 0 |] ~player:0)

let test_nash_flips_with_charge () =
  let free = simple_mg 0.0 in
  Alcotest.(check bool) "high-high Nash when free" true (MG.is_nash free ~choice:[| 1; 1 |]);
  let charged = simple_mg 1.0 in
  Alcotest.(check bool) "low-low Nash when charged" true (MG.is_nash charged ~choice:[| 0; 0 |]);
  Alcotest.(check bool) "high-high not Nash when charged" false
    (MG.is_nash charged ~choice:[| 1; 1 |])

let test_best_deviation () =
  let charged = simple_mg 1.0 in
  match MG.best_deviation charged ~choice:[| 1; 1 |] ~player:0 with
  | Some (0, u) -> check_float "deviate to low" (-1.0) u
  | Some _ | None -> Alcotest.fail "expected deviation to machine 0"

let test_nash_equilibria_enumeration () =
  let free = simple_mg 0.0 in
  Alcotest.(check int) "unique equilibrium when free" 1 (List.length (MG.nash_equilibria free))

let test_to_normal_form_consistency () =
  let g = simple_mg 1.0 in
  let nf = MG.to_normal_form g in
  B.Normal_form.iter_profiles nf (fun p ->
      check_float "payoffs agree"
        (MG.expected_utility g ~choice:p ~player:0)
        (B.Normal_form.payoff nf p 0))

let test_create_validates_prior () =
  let make prior =
    ignore
      (MG.create
         ~machines:[| [| B.Machine.constant "a" 0 |]; [| B.Machine.constant "b" 0 |] |]
         ~num_types:[| 1; 1 |] ~prior
         ~utility:(fun ~player:_ ~types:_ ~acts:_ ~complexities:_ -> 0.0))
  in
  Alcotest.check_raises "profile arity"
    (Invalid_argument "Machine_game.create: prior profile arity") (fun () ->
      make (B.Dist.return [| 7 |]));
  Alcotest.check_raises "type out of range"
    (Invalid_argument "Machine_game.create: prior type out of range") (fun () ->
      make (B.Dist.return [| 0; 7 |]))

(* {2 The EU table against the list-path oracle}

   A random machine game (1–3 players, 1–3 types and 1–3 machines each)
   drawn from a seed, built twice: by [Machine_game.create] and as the
   oracle's record. Machines are deterministic, randomizing, or
   randomizing with a point-mass output; utilities are small integers
   minus a charge on complexity, so ties between machines are common. *)
module O = Oracles.Machine_game

let random_machine_game seed =
  let rng = B.Prng.create seed in
  let n = 1 + B.Prng.int rng 3 in
  let num_types = Array.init n (fun _ -> 1 + B.Prng.int rng 3) in
  let small () = float_of_int (B.Prng.int rng 5 - 2) in
  let table () = Array.init 3 (fun _ -> B.Prng.int rng 3) in
  let machine i m =
    let name = Printf.sprintf "m%d.%d" i m in
    let cost = Array.init 3 (fun _ -> float_of_int (B.Prng.int rng 3)) in
    let complexity ty = cost.(ty) in
    match B.Prng.int rng 3 with
    | 0 ->
      let out = table () in
      B.Machine.deterministic name ~complexity (fun ty -> out.(ty))
    | 1 ->
      let a = table () and b = table () in
      let w = Array.init 3 (fun _ -> 0.25 +. B.Prng.float rng) in
      B.Machine.randomizing name ~complexity (fun ty ->
          B.Dist.of_list [ (a.(ty), w.(ty)); (b.(ty), 1.0) ])
    | _ ->
      let out = table () and w = 0.1 +. B.Prng.float rng in
      B.Machine.randomizing name ~complexity (fun ty -> B.Dist.of_list [ (out.(ty), w) ])
  in
  let machines = Array.init n (fun i -> Array.init (1 + B.Prng.int rng 3) (machine i)) in
  let type_profiles = B.Combin.profiles num_types in
  let weights = List.map (fun tp -> (tp, float_of_int (B.Prng.int rng 3))) type_profiles in
  let weights =
    if List.for_all (fun (_, w) -> w = 0.0) weights then
      (List.hd type_profiles, 1.0) :: List.tl weights
    else weights
  in
  let prior = B.Dist.of_list weights in
  let pay = Array.init 2187 (fun _ -> small ()) in
  let charge = Array.init n (fun _ -> if B.Prng.bool rng then 1.0 else 0.5) in
  let utility ~player ~types ~acts ~complexities =
    let idx = ref player in
    Array.iteri (fun j ty -> idx := (((!idx * 3) + ty) * 3) + acts.(j)) types;
    pay.(!idx) -. (charge.(player) *. complexities.(player))
  in
  (MG.create ~machines ~num_types ~prior ~utility, { O.machines; prior; utility })

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let machine_table_agreement_property =
  QCheck.Test.make ~count:200 ~name:"machine game: EU table = list-path oracle (bitwise)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, o = random_machine_game seed in
      let n = MG.n_players g in
      let profiles = O.all_choices o in
      List.for_all
        (fun choice ->
          List.for_all
            (fun player ->
              bits_eq (MG.expected_utility g ~choice ~player) (O.expected_utility o ~choice ~player)
              && MG.best_deviation g ~choice ~player = O.best_deviation o ~choice ~player)
            (List.init n Fun.id)
          && List.for_all
               (fun eps -> MG.is_nash ~eps g ~choice = O.is_nash ~eps o ~choice)
               [ 0.0; 1e-9; 0.5 ])
        profiles
      && MG.nash_equilibria g = O.nash_equilibria o
      && MG.nonexistence_certificate g = O.nonexistence_certificate o)

(* Computational roshambo (Ex 3.3) has no equilibrium, so its certificate
   covers every profile; both sides must name the same deviations. *)
let test_roshambo_certificate_matches_oracle () =
  let beats i j = if i = (j + 1) mod 3 then 1.0 else if j = (i + 1) mod 3 then -1.0 else 0.0 in
  let space =
    Array.append
      (Array.init 3 (fun a -> B.Machine.constant (string_of_int a) a))
      [| B.Machine.randomizing "uniform" (fun _ -> B.Dist.uniform [ 0; 1; 2 ]) |]
  in
  let base acts = [| beats acts.(0) acts.(1); beats acts.(1) acts.(0) |] in
  let g = MG.simple ~machines:[| space; space |] ~base ~charge:[| 1.0; 1.0 |] in
  let o =
    {
      O.machines = [| space; space |];
      prior = B.Dist.return [| 0; 0 |];
      utility =
        (fun ~player ~types:_ ~acts ~complexities ->
          (base acts).(player) -. (1.0 *. complexities.(player)));
    }
  in
  Alcotest.(check bool) "no equilibrium" true (MG.nash_equilibria g = []);
  Alcotest.(check bool) "certificate" true
    (MG.nonexistence_certificate g = O.nonexistence_certificate o
    && MG.nonexistence_certificate g <> None)

(* {1 Primality} *)

let trial_division n =
  if n < 2 then false
  else begin
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2
  end

let miller_rabin_matches_trial_division =
  QCheck.Test.make ~count:300 ~name:"primality: Miller-Rabin = trial division"
    QCheck.(int_range 2 200000)
    (fun n -> P.is_prime n = trial_division n)

let test_known_primes () =
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (P.is_prime p))
    [ 2; 3; 5; 104729; 2147483647 ];
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (P.is_prime c))
    [ 1; 4; 100; 104730; 2147483645 ]

let test_carmichael_numbers () =
  (* Carmichael numbers fool Fermat but not Miller-Rabin. *)
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (P.is_prime c))
    [ 561; 1105; 1729; 2465; 41041; 825265 ]

let test_counted_cost_grows () =
  (* Primes cost more to certify than typical composites, and bigger
     numbers cost more. *)
  let _, c_small = P.counted_is_prime 104729 in
  let _, c_big = P.counted_is_prime 2147483647 in
  Alcotest.(check bool) "bigger prime costs more" true (c_big > c_small);
  Alcotest.(check bool) "positive cost" true (c_small > 0)

(* Above 2^31 the product leaves the native int: moduli below 2^51 take
   the floating-point quotient, larger ones the overflow-free doubling. *)
let test_large_primes () =
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (P.is_prime p))
    [
      (1 lsl 31) + 11; (1 lsl 40) + 15; (1 lsl 50) + 55; (1 lsl 51) + 21; (1 lsl 52) + 21;
      (1 lsl 60) + 33; (1 lsl 61) - 1; (1 lsl 61) + 15; (1 lsl 62) - 57;
    ];
  (* Strong pseudoprimes: 3215031751 to bases 2, 3, 5 and 7;
     3825123056546413051 to every prime base up to 31, so only the
     last base, 37, exposes it. *)
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (P.is_prime c))
    [ 3215031751; 3825123056546413051 ]

let test_large_counts_pinned () =
  (* The game charges these counts; a faster mulmod must not move them. *)
  List.iter
    (fun (n, ops) ->
      Alcotest.(check int) (string_of_int n) ops (snd (P.counted_is_prime n)))
    [
      ((1 lsl 31) + 11, 372); ((1 lsl 40) + 15, 480); ((1 lsl 50) + 55, 600);
      ((1 lsl 51) + 21, 607); ((1 lsl 52) + 21, 617); ((1 lsl 60) + 33, 705);
      ((1 lsl 61) - 1, 720); (3215031751, 155);
    ]

let test_odd_numbers_above_2_61 () =
  (* 104 primes among the 2001 odd numbers 2^61 + 1, ..., 2^61 + 4001. *)
  let primes = ref 0 in
  for i = 0 to 2000 do
    if P.is_prime ((1 lsl 61) + 1 + (2 * i)) then incr primes
  done;
  Alcotest.(check int) "primes" 104 !primes

let test_utilities_at_62_bits () =
  (* The sampler must find 62-bit primes for the game to exist at all. *)
  let us = P.utilities (B.Prng.create 62) (P.default_spec ~bits:62 ~cost_per_op:0.05) in
  Alcotest.(check (list string)) "machines" (Array.to_list P.machine_names) (List.map fst us);
  Alcotest.(check bool) "safe beats solve at 62 bits" true
    (List.assoc "safe" us > List.assoc "solve" us)

let test_primality_game_crossover () =
  let rng = B.Prng.create 77 in
  let small = P.default_spec ~bits:8 ~cost_per_op:0.05 in
  let us_small = P.utilities (B.Prng.split rng 8) small in
  Alcotest.(check bool) "solve wins at 8 bits" true
    (List.assoc "solve" us_small > List.assoc "safe" us_small);
  let large = P.default_spec ~bits:40 ~cost_per_op:0.05 in
  let us_large = P.utilities (B.Prng.split rng 40) large in
  Alcotest.(check bool) "safe wins at 40 bits" true
    (List.assoc "safe" us_large > List.assoc "solve" us_large)

let test_primality_equilibrium_choice () =
  let rng = B.Prng.create 78 in
  Alcotest.(check int) "equilibrium at 8 bits is solve (index 0)" 0
    (P.equilibrium_choice (B.Prng.split rng 8) (P.default_spec ~bits:8 ~cost_per_op:0.05));
  Alcotest.(check int) "equilibrium at 40 bits is safe (index 1)" 1
    (P.equilibrium_choice (B.Prng.split rng 40) (P.default_spec ~bits:40 ~cost_per_op:0.05))

let test_crossover_bits_found () =
  let rng = B.Prng.create 79 in
  match P.crossover_bits rng ~cost_per_op:0.05 with
  | Some b -> Alcotest.(check bool) "crossover in a sane range" true (b > 8 && b < 45)
  | None -> Alcotest.fail "crossover should exist at this cost"

let test_guessing_is_fair_bet () =
  let rng = B.Prng.create 80 in
  let us = P.utilities rng (P.default_spec ~bits:16 ~cost_per_op:0.05) in
  (* Balanced sampling: blind guessing nets ~0 (minus the tiny base cost). *)
  Alcotest.(check bool) "guess-prime ~ 0" true (Float.abs (List.assoc "guess-prime" us) < 0.5)

(* {1 Computational roshambo} *)

let test_comp_roshambo_no_equilibrium () =
  let g = B.Comp_roshambo.game () in
  Alcotest.(check bool) "no equilibrium" false (B.Comp_roshambo.has_equilibrium g)

let test_comp_roshambo_certificate_complete () =
  let g = B.Comp_roshambo.game () in
  match B.Comp_roshambo.certificate g with
  | None -> Alcotest.fail "nonexistence certificate should exist"
  | Some cert ->
    (* 4 machines each -> 16 profiles, every one refuted. *)
    Alcotest.(check int) "all profiles covered" 16 (List.length cert);
    List.iter
      (fun (choice, player, machine) ->
        let alt = Array.copy choice in
        alt.(player) <- machine;
        let before = MG.expected_utility g ~choice ~player in
        let after = MG.expected_utility g ~choice:alt ~player in
        Alcotest.(check bool) "deviation strictly profitable" true (after > before +. 1e-9))
      cert

let test_comp_roshambo_extra_randomizers () =
  let g = B.Comp_roshambo.game ~extra_randomizers:true () in
  Alcotest.(check bool) "still no equilibrium" false (B.Comp_roshambo.has_equilibrium g)

let test_classical_roshambo_has_equilibrium () =
  let eqs = B.Comp_roshambo.classical_equilibria () in
  Alcotest.(check int) "classical: unique uniform NE" 1 (List.length eqs)

let suite =
  [
    Alcotest.test_case "machine: deterministic" `Quick test_deterministic_machine;
    Alcotest.test_case "machine: randomizing" `Quick test_randomizing_machine;
    Alcotest.test_case "machine game: expected utility" `Quick test_expected_utility;
    Alcotest.test_case "machine game: charge flips Nash" `Quick test_nash_flips_with_charge;
    Alcotest.test_case "machine game: best deviation" `Quick test_best_deviation;
    Alcotest.test_case "machine game: equilibria" `Quick test_nash_equilibria_enumeration;
    Alcotest.test_case "machine game: to normal form" `Quick test_to_normal_form_consistency;
    Alcotest.test_case "machine game: create validates prior" `Quick test_create_validates_prior;
    QCheck_alcotest.to_alcotest machine_table_agreement_property;
    Alcotest.test_case "machine game: roshambo = oracle" `Quick
      test_roshambo_certificate_matches_oracle;
    QCheck_alcotest.to_alcotest miller_rabin_matches_trial_division;
    Alcotest.test_case "primality: known values" `Quick test_known_primes;
    Alcotest.test_case "primality: Carmichael" `Quick test_carmichael_numbers;
    Alcotest.test_case "primality: cost grows" `Quick test_counted_cost_grows;
    Alcotest.test_case "primality: above 2^31" `Quick test_large_primes;
    Alcotest.test_case "primality: counts pinned" `Quick test_large_counts_pinned;
    Alcotest.test_case "primality: odd numbers above 2^61" `Quick test_odd_numbers_above_2_61;
    Alcotest.test_case "primality: 62-bit utilities" `Slow test_utilities_at_62_bits;
    Alcotest.test_case "primality: crossover" `Slow test_primality_game_crossover;
    Alcotest.test_case "primality: equilibrium choice" `Slow test_primality_equilibrium_choice;
    Alcotest.test_case "primality: crossover bits" `Slow test_crossover_bits_found;
    Alcotest.test_case "primality: fair bet" `Quick test_guessing_is_fair_bet;
    Alcotest.test_case "roshambo: no computational NE" `Quick test_comp_roshambo_no_equilibrium;
    Alcotest.test_case "roshambo: certificate" `Quick test_comp_roshambo_certificate_complete;
    Alcotest.test_case "roshambo: extra randomizers" `Quick test_comp_roshambo_extra_randomizers;
    Alcotest.test_case "roshambo: classical NE exists" `Quick
      test_classical_roshambo_has_equilibrium;
  ]
