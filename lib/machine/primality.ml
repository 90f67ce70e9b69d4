(* Modular multiplication a·b mod m for 0 <= a, b < m, exact for every
   modulus up to [max_int]. Each call counts as one modular multiplication
   for complexity accounting (charging per high-level mulmod keeps the cost
   model machine-independent, whichever way the product is formed):

   - m < 2^31: the product fits in a native int.
   - 2^31 <= m < 2^51: the quotient q = ⌊ab/m⌋ is estimated in floating
     point. Both roundings together are within 1/2 of ab/m < 2^51, so the
     estimate is off by at most one and ab − qm lies in [−m, 2m). That
     fits in an int, and native ints wrap modulo 2^63, so computing it as
     a·b − q·m is exact even though a·b itself overflows; one correction
     step brings it into [0, m).
   - m >= 2^51: Russian-peasant doubling with an add that never exceeds
     m (so never [max_int]). *)
let mulmod a b m =
  if m < 1 lsl 31 then a * b mod m
  else if m < 1 lsl 51 then begin
    let q = int_of_float (float_of_int a *. float_of_int b /. float_of_int m) in
    let r = (a * b) - (q * m) in
    if r < 0 then r + m else if r >= m then r - m else r
  end
  else begin
    let add x y = if x >= m - y then x - (m - y) else x + y in
    let rec go a b acc =
      if b = 0 then acc
      else begin
        let acc = if b land 1 = 1 then add acc a else acc in
        go (add a a) (b lsr 1) acc
      end
    in
    go (a mod m) b 0
  end

(* The modular-multiplication counter is threaded explicitly (created per
   [counted_is_prime] call) rather than kept as module state, so counts
   stay exact when primality games run on several domains at once. *)
let powmod ~ops base e m =
  let rec go base e acc =
    if e = 0 then acc
    else begin
      incr ops;
      let acc = if e land 1 = 1 then mulmod acc base m else acc in
      go (mulmod base base m) (e lsr 1) acc
    end
  in
  go (base mod m) e 1

(* Deterministic Miller–Rabin bases valid for all inputs < 3.3 * 10^24 ⊇
   63-bit range. *)
let bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let miller_rabin ~ops n =
  if n < 2 then false
  else if n mod 2 = 0 then n = 2
  else begin
    let rec split d s = if d mod 2 = 0 then split (d / 2) (s + 1) else (d, s) in
    let d, s = split (n - 1) 0 in
    let witness a =
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = powmod ~ops a d n in
        if x = 1 || x = n - 1 then false
        else begin
          let rec loop x i =
            if i = s - 1 then true
            else begin
              incr ops;
              let x = mulmod x x n in
              if x = n - 1 then false else loop x (i + 1)
            end
          in
          loop x 0
        end
      end
    in
    not (List.exists witness bases)
  end

let counted_is_prime n =
  let ops = ref 0 in
  let result = miller_rabin ~ops n in
  (result, !ops)

let is_prime n = fst (counted_is_prime n)

type spec = {
  bits : int;
  cost_per_op : float;
  samples : int;
  reward_correct : float;
  penalty_wrong : float;
  reward_safe : float;
}

let default_spec ~bits ~cost_per_op =
  { bits; cost_per_op; samples = 400; reward_correct = 10.0; penalty_wrong = 10.0; reward_safe = 1.0 }

let machine_names = [| "solve"; "safe"; "guess-prime"; "guess-composite" |]

(* Actions: 0 = declare composite, 1 = declare prime, 2 = abstain.

   The type space is balanced: half primes, half composites, so that
   declaring blindly is a fair bet (expected 0) and the tension is exactly
   the paper's "compute for $10 or take the safe $1". *)
let sample_inputs rng spec =
  if spec.bits < 5 || spec.bits > 62 then invalid_arg "Primality: bits in [5, 62]";
  let base = 1 lsl (spec.bits - 1) in
  let random_odd () =
    let x = base + Bn_util.Prng.int rng base in
    if x mod 2 = 0 then x + 1 else x
  in
  (* Each candidate is tested once: an input is represented by its
     [counted_is_prime] pair, the truth the game scores against and the
     cost it charges for solving it. *)
  let rec sample_with want_prime =
    let rec scan x tries =
      if tries > 4 * spec.bits * spec.bits then accept (random_odd ())
      else
        let ((prime, _) as tested) = counted_is_prime x in
        if prime = want_prime then tested else scan (x + 2) (tries + 1)
    and accept x =
      let ((prime, _) as tested) = counted_is_prime x in
      if prime = want_prime then tested else sample_with want_prime
    in
    scan (random_odd ()) 0
  in
  Array.init spec.samples (fun i -> sample_with (i mod 2 = 0))

let game rng spec =
  let tested = sample_inputs rng spec in
  let truth = Array.map fst tested in
  let costs = Array.map (fun (_, ops) -> float_of_int ops) tested in
  let solve =
    {
      Machine.name = "solve";
      act = (fun idx -> Bn_util.Dist.return (if truth.(idx) then 1 else 0));
      complexity = (fun idx -> costs.(idx));
      randomized = false;
    }
  in
  let safe = Machine.constant "safe" ~complexity:(fun _ -> 1.0) 2 in
  let guess_prime = Machine.constant "guess-prime" ~complexity:(fun _ -> 1.0) 1 in
  let guess_composite = Machine.constant "guess-composite" ~complexity:(fun _ -> 1.0) 0 in
  let prior = Bn_util.Dist.uniform (List.init spec.samples (fun i -> [| i |])) in
  Machine_game.create
    ~machines:[| [| solve; safe; guess_prime; guess_composite |] |]
    ~num_types:[| spec.samples |]
    ~prior
    ~utility:(fun ~player:_ ~types ~acts ~complexities ->
      let idx = types.(0) in
      let base =
        match acts.(0) with
        | 2 -> spec.reward_safe
        | a ->
          let correct = (a = 1) = truth.(idx) in
          if correct then spec.reward_correct else -.spec.penalty_wrong
      in
      base -. (spec.cost_per_op *. complexities.(0)))

let utilities rng spec =
  let g = game rng spec in
  List.init 4 (fun m ->
      (machine_names.(m), Machine_game.expected_utility g ~choice:[| m |] ~player:0))

let equilibrium_choice rng spec =
  let us = utilities rng spec in
  let best = ref 0 and best_u = ref neg_infinity in
  List.iteri (fun i (_, u) -> if u > !best_u then begin best := i; best_u := u end) us;
  !best

let crossover_bits ?(lo = 6) ?(hi = 48) rng ~cost_per_op =
  let rec go bits =
    if bits > hi then None
    else begin
      let spec = default_spec ~bits ~cost_per_op in
      let us = utilities (Bn_util.Prng.split rng bits) spec in
      let u_solve = List.assoc "solve" us and u_safe = List.assoc "safe" us in
      if u_safe > u_solve then Some bits else go (bits + 1)
    end
  in
  go lo
