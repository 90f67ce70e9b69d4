type trace = { profile : Mixed.profile; rounds : int; final_regret : float }

module Obs = Bn_obs.Obs
module Kernel = Nash.Kernel

(* The dynamics are serial loops, so the incremental-EU bookkeeping is a
   pure function of (game, init, rounds): Det, asserted identical across
   [-j] and reruns in test_obs. A "recompute" is one player's deviation-EU
   vector rebuilt because some opponent mixture changed that round; a
   "skip" is the cached vector reused because no opponent coordinate
   changed (bitwise), which makes the reuse exact, not approximate. *)
let c_eu_recomputes = Obs.counter "learning.eu_recomputes"
let c_eu_skips = Obs.counter "learning.eu_skips"

let check_profile_arity name g prof =
  let n = Normal_form.n_players g in
  if Array.length prof <> n then invalid_arg (name ^ ": profile arity");
  for i = 0 to n - 1 do
    if Array.length prof.(i) <> Normal_form.num_actions g i then
      invalid_arg (name ^ ": strategy arity")
  done

let fictitious_play ?init ?tol ~rounds g =
  let n = Normal_form.n_players g in
  let counts = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let current =
    match init with
    | Some p -> Array.copy p
    | None -> Array.make n 0
  in
  let k = Kernel.make g in
  (* Empirical mixtures double as the kernel's input profile; NaN-seeded so
     every coordinate reads as changed on round 1. *)
  let emp = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) Float.nan) in
  let devs = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let changed = Array.make n true in
  let executed = ref 0 in
  let stop = ref false in
  let round = ref 0 in
  while (not !stop) && !round < rounds do
    incr round;
    Array.iteri (fun i a -> counts.(i).(a) <- counts.(i).(a) +. 1.0) current;
    for i = 0 to n - 1 do
      let c = counts.(i) in
      let total = Array.fold_left ( +. ) 0.0 c in
      let e = emp.(i) in
      let ch = ref false in
      for a = 0 to Array.length c - 1 do
        let v = c.(a) /. total in
        if v <> e.(a) then begin
          ch := true;
          e.(a) <- v
        end
      done;
      changed.(i) <- !ch
    done;
    executed := !round;
    (match tol with
    | Some tol -> if Nash.max_regret g emp < tol then stop := true
    | None -> ());
    if not !stop then begin
      Kernel.refresh k emp;
      for i = 0 to n - 1 do
        let opp_changed = ref false in
        for j = 0 to n - 1 do
          if j <> i && changed.(j) then opp_changed := true
        done;
        let d = devs.(i) in
        (* Round 1 seeds the cache even when there is no opponent to have
           changed (n = 1). *)
        if !opp_changed || !round = 1 then begin
          Obs.incr c_eu_recomputes;
          Kernel.deviation_values k i d
        end
        else Obs.incr c_eu_skips;
        (* Lowest-index best response within the 1e-9 tie band — the head
           of [Nash.pure_best_responses]. *)
        let best = ref neg_infinity in
        for a = 0 to Array.length d - 1 do
          if d.(a) > !best then best := d.(a)
        done;
        let pick = ref (-1) in
        for a = Array.length d - 1 downto 0 do
          if Float.abs (d.(a) -. !best) <= 1e-9 then pick := a
        done;
        if !pick >= 0 then current.(i) <- !pick
      done
    end
  done;
  let profile = Array.map Mixed.of_weights counts in
  { profile; rounds = !executed; final_regret = Nash.max_regret g profile }

let replicator ?init ?(dt = 0.1) ?tol ~rounds g =
  let n = Normal_form.n_players g in
  let prof =
    match init with
    | Some p ->
      check_profile_arity "Learning.replicator" g p;
      Array.map Array.copy p
    | None -> Array.map Array.copy (Mixed.uniform_profile g)
  in
  let k = Kernel.make g in
  let next = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let fit = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let avg = Array.make n 0.0 in
  let changed = Array.make n true in
  let executed = ref 0 in
  let stop = ref false in
  let round = ref 0 in
  while (not !stop) && !round < rounds do
    incr round;
    Kernel.refresh k prof;
    for i = 0 to n - 1 do
      let opp_changed = ref false in
      for j = 0 to n - 1 do
        if j <> i && changed.(j) then opp_changed := true
      done;
      if !opp_changed || !round = 1 then begin
        Obs.incr c_eu_recomputes;
        Kernel.deviation_values k i fit.(i)
      end
      else Obs.incr c_eu_skips
    done;
    (* A player's average payoff moves when any mixture does, its own
       included. *)
    if Array.exists Fun.id changed then Kernel.own_values k avg;
    (* Simultaneous update: every player's new mixture is computed from the
       old profile, then normalized exactly as [Mixed.of_weights] does. *)
    for i = 0 to n - 1 do
      let s = prof.(i) and nx = next.(i) and f = fit.(i) in
      let m = Array.length s in
      for a = 0 to m - 1 do
        nx.(a) <- Float.max 1e-12 (s.(a) *. (1.0 +. (dt *. (f.(a) -. avg.(i)))))
      done;
      let total = Array.fold_left ( +. ) 0.0 nx in
      for a = 0 to m - 1 do
        nx.(a) <- nx.(a) /. total
      done
    done;
    for i = 0 to n - 1 do
      let s = prof.(i) and nx = next.(i) in
      let ch = ref false in
      for a = 0 to Array.length s - 1 do
        if nx.(a) <> s.(a) then ch := true
      done;
      changed.(i) <- !ch;
      prof.(i) <- nx;
      next.(i) <- s
    done;
    executed := !round;
    match tol with
    | Some tol -> if Nash.max_regret g prof < tol then stop := true
    | None -> ()
  done;
  { profile = prof; rounds = !executed; final_regret = Nash.max_regret g prof }

let best_response_iteration ?init ~max_rounds g =
  let n = Normal_form.n_players g in
  let current = match init with Some p -> Array.copy p | None -> Array.make n 0 in
  let rec go round =
    if Nash.is_pure_nash g current then Some (Array.copy current)
    else if round >= max_rounds then None
    else begin
      let moved = ref false in
      for i = 0 to n - 1 do
        if not !moved then begin
          let prof = Mixed.pure_profile g current in
          let best = Nash.best_response_value g prof ~player:i in
          let own = Mixed.expected_payoff g prof i in
          if best -. own > 1e-9 then begin
            (match Nash.pure_best_responses g prof ~player:i with
            | [] -> ()
            | a :: _ -> current.(i) <- a);
            moved := true
          end
        end
      done;
      if !moved then go (round + 1) else Some (Array.copy current)
    end
  in
  go 0
