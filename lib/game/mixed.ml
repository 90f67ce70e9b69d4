type strategy = float array
type profile = strategy array

module Obs = Bn_obs.Obs

(* Expected-payoff evaluations run under Robust's early-exit deviation
   scans, so their execution counts depend on scheduling: Volatile. The
   per-profile work inside one [iter_support] sweep is accumulated
   locally and flushed once, keeping the odometer loop free of atomics. *)
let c_support_iters = Obs.counter ~kind:Obs.Volatile "mixed.support_iters"
let c_support_profiles = Obs.counter ~kind:Obs.Volatile "mixed.support_profiles"
let c_expected_payoffs = Obs.counter ~kind:Obs.Volatile "mixed.expected_payoffs"

let pure ~num_actions a =
  if a < 0 || a >= num_actions then invalid_arg "Mixed.pure: action out of range";
  Array.init num_actions (fun i -> if i = a then 1.0 else 0.0)

let uniform n =
  if n <= 0 then invalid_arg "Mixed.uniform: no actions";
  Array.make n (1.0 /. float_of_int n)

let of_weights w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 || Array.exists (fun x -> x < 0.0) w then
    invalid_arg "Mixed.of_weights: invalid weights";
  Array.map (fun x -> x /. total) w

let is_valid ?(eps = 1e-6) s =
  Array.for_all (fun p -> p >= -.eps) s
  && Float.abs (Array.fold_left ( +. ) 0.0 s -. 1.0) <= eps

let pure_profile g pure_acts =
  Array.init (Normal_form.n_players g) (fun i ->
      pure ~num_actions:(Normal_form.num_actions g i) pure_acts.(i))

let uniform_profile g =
  Array.init (Normal_form.n_players g) (fun i -> uniform (Normal_form.num_actions g i))

let prob_of_profile prof p =
  let acc = ref 1.0 in
  Array.iteri (fun i a -> acc := !acc *. prof.(i).(a)) p;
  !acc

let point_mass s =
  (* [Some a] iff the strategy is exactly the point mass on [a]: one entry
     equal to 1.0, every other exactly 0.0. Exact comparison on purpose —
     only strategies built by [pure] (and friends) take the table-read fast
     path; anything else goes through the support product, which is
     numerically identical to the full scan. *)
  let n = Array.length s in
  let rec go i found =
    if i >= n then found
    else if s.(i) = 0.0 then go (i + 1) found
    else if s.(i) = 1.0 && found = None then go (i + 1) (Some i)
    else None
  in
  go 0 None

let pure_actions prof =
  let n = Array.length prof in
  let p = Array.make n 0 in
  let rec go i =
    if i >= n then Some p
    else
      match point_mass prof.(i) with
      | Some a ->
        p.(i) <- a;
        go (i + 1)
      | None -> None
  in
  go 0

(* Support-product iteration: visit every profile in the product of the
   players' supports, in row-major order, calling [f profile flat_index pr].
   [profile] is reused across calls. Probabilities are accumulated as the
   same left-to-right product the full scan computes ([prob_of_profile]),
   and zero-probability profiles are skipped exactly when the full scan
   skips them, so every consumer below is bit-identical to the O(∏ᵢ aᵢ)
   enumeration it replaces — only ∏ᵢ|supp(σᵢ)| profiles are touched. *)
let iter_support g prof f =
  let n = Array.length prof in
  let supp_acts = Array.make n [||] in
  let supp_probs = Array.make n [||] in
  let empty = ref false in
  for i = 0 to n - 1 do
    let s = prof.(i) in
    let cnt = ref 0 in
    Array.iter (fun p -> if p > 0.0 then incr cnt) s;
    if !cnt = 0 then empty := true
    else begin
      let acts = Array.make !cnt 0 and probs = Array.make !cnt 0.0 in
      let j = ref 0 in
      Array.iteri
        (fun a p ->
          if p > 0.0 then begin
            acts.(!j) <- a;
            probs.(!j) <- p;
            incr j
          end)
        s;
      supp_acts.(i) <- acts;
      supp_probs.(i) <- probs
    end
  done;
  Obs.incr c_support_iters;
  if not !empty then begin
    let visited = ref 0 in
    let pos = Array.make n 0 in
    let cur = Array.make n 0 in
    (* Per-player prefixes of the running product and flat index; bumping
       position [j] only recomputes levels [j … n−1]. *)
    let pref_pr = Array.make n 1.0 in
    let pref_idx = Array.make n 0 in
    let recompute_from j0 =
      for j = j0 to n - 1 do
        let a = supp_acts.(j).(pos.(j)) in
        cur.(j) <- a;
        pref_pr.(j) <- (if j = 0 then 1.0 else pref_pr.(j - 1)) *. supp_probs.(j).(pos.(j));
        pref_idx.(j) <- (if j = 0 then 0 else pref_idx.(j - 1)) + (a * Normal_form.stride g j)
      done
    in
    recompute_from 0;
    let continue = ref true in
    while !continue do
      let pr = pref_pr.(n - 1) in
      if pr > 0.0 then begin
        Stdlib.incr visited;
        f cur pref_idx.(n - 1) pr
      end;
      let rec bump j =
        if j < 0 then false
        else if pos.(j) + 1 < Array.length supp_acts.(j) then begin
          pos.(j) <- pos.(j) + 1;
          recompute_from j;
          true
        end
        else begin
          pos.(j) <- 0;
          bump (j - 1)
        end
      in
      continue := bump (n - 1)
    done;
    Obs.add c_support_profiles !visited
  end

let expected_payoff g prof i =
  Obs.incr c_expected_payoffs;
  match pure_actions prof with
  | Some p -> 0.0 +. Normal_form.payoff g p i
  | None ->
    let acc = ref 0.0 in
    iter_support g prof (fun _ idx pr ->
        acc := !acc +. (pr *. Normal_form.payoff_by_index g idx i));
    !acc

let expected_payoff_naive g prof i =
  let acc = ref 0.0 in
  Normal_form.iter_profiles g (fun p ->
      let pr = prob_of_profile prof p in
      if pr > 0.0 then acc := !acc +. (pr *. Normal_form.payoff g p i));
  !acc

let expected_payoffs g prof =
  let n = Normal_form.n_players g in
  match pure_actions prof with
  | Some p ->
    let idx = Normal_form.index_of g p in
    Array.init n (fun i -> 0.0 +. Normal_form.payoff_by_index g idx i)
  | None ->
    let acc = Array.make n 0.0 in
    iter_support g prof (fun _ idx pr ->
        for i = 0 to n - 1 do
          acc.(i) <- acc.(i) +. (pr *. Normal_form.payoff_by_index g idx i)
        done);
    acc

let support ?(eps = 1e-9) s =
  let acc = ref [] in
  Array.iteri (fun i p -> if p > eps then acc := i :: !acc) s;
  List.rev !acc

let outcome_dist g prof =
  let pairs = ref [] in
  iter_support g prof (fun p _ pr -> pairs := (Array.copy p, pr) :: !pairs);
  Bn_util.Dist.of_list !pairs

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun sa sb ->
         Array.length sa = Array.length sb
         && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) sa sb)
       a b

let pp_strategy ppf s =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3f") s)))

let pp_profile ppf prof =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_strategy)
    (Array.to_list prof)
