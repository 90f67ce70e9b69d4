type kind = Standard of int | Hoarder | Altruist

type params = {
  n : int;
  rounds : int;
  benefit : float;
  cost : float;
}

let default_params ~n = { n; rounds = 100 * n; benefit = 1.0; cost = 0.2 }

type stats = {
  utilities : float array;
  satisfied : int;
  requests : int;
  starved : int;
  unserved : int;
  final_scrip : int array;
}

(* The original boxed per-agent loop: every round rebuilds the willing
   list with an O(n) filter. Retained verbatim as the oracle the
   struct-of-arrays fast path is QCheck-pinned against (bitwise-equal
   stats), like [Simplex.solve_dense] and the [*_naive] learning
   dynamics. *)
let simulate_naive rng params ~kinds ~money_per_agent =
  let { n; rounds; benefit; cost } = params in
  if Array.length kinds <> n then invalid_arg "Scrip.simulate: kinds arity";
  let scrip = Array.make n 0 in
  let total_money = int_of_float (money_per_agent *. float_of_int n) in
  for unit = 0 to total_money - 1 do
    scrip.(unit mod n) <- scrip.(unit mod n) + 1
  done;
  let utilities = Array.make n 0.0 in
  let satisfied = ref 0 and requests = ref 0 and starved = ref 0 and unserved = ref 0 in
  for _ = 1 to rounds do
    let chooser = Bn_util.Prng.int rng n in
    let wants = match kinds.(chooser) with Hoarder -> false | Standard _ | Altruist -> true in
    if wants then begin
      incr requests;
      if scrip.(chooser) < 1 then incr starved
      else begin
        let willing =
          List.filter
            (fun i ->
              i <> chooser
              &&
              match kinds.(i) with
              | Standard k -> scrip.(i) < k
              | Hoarder | Altruist -> true)
            (List.init n Fun.id)
        in
        match willing with
        | [] -> incr unserved
        | _ ->
          let volunteer = List.nth willing (Bn_util.Prng.int rng (List.length willing)) in
          incr satisfied;
          utilities.(chooser) <- utilities.(chooser) +. benefit;
          utilities.(volunteer) <- utilities.(volunteer) -. cost;
          (match kinds.(volunteer) with
          | Altruist -> ()
          | Standard _ | Hoarder ->
            scrip.(chooser) <- scrip.(chooser) - 1;
            scrip.(volunteer) <- scrip.(volunteer) + 1)
      end
    end
  done;
  {
    utilities;
    satisfied = !satisfied;
    requests = !requests;
    starved = !starved;
    unserved = !unserved;
    final_scrip = scrip;
  }

(* {1 The fast sequential path}

   Same dynamics, same PRNG consumption, O(log n) per round: agent state
   lives in struct-of-arrays columns (no per-agent boxing) and the
   willing set is maintained in a Fenwick tree keyed by agent index, so
   "the r-th willing agent in index order" — [List.nth willing r] above
   — is an O(log n) order-statistics query instead of an O(n) filter.
   [simulate] is bitwise-equal to [simulate_naive]: identical stats
   record for every seed (QCheck-pinned in test/test_scrip_p2p.ml). *)

module Fenwick = struct
  (* Standard 1-indexed binary indexed tree over n 0/1 weights. *)
  type t = { tree : int array; mutable total : int; n : int }

  let create n = { tree = Array.make (n + 1) 0; total = 0; n }

  let update t i delta =
    t.total <- t.total + delta;
    let i = ref (i + 1) in
    while !i <= t.n do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* Sum of weights over [0, i) — the rank of agent [i] among set bits. *)
  let prefix t i =
    let s = ref 0 and i = ref i in
    while !i > 0 do
      s := !s + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  (* The 0-indexed agent holding the (r+1)-th set bit: binary descend. *)
  let select t r =
    let pos = ref 0 and rem = ref (r + 1) in
    let bit = ref 1 in
    while !bit * 2 <= t.n do
      bit := !bit * 2
    done;
    while !bit > 0 do
      let next = !pos + !bit in
      if next <= t.n && t.tree.(next) < !rem then begin
        pos := next;
        rem := !rem - t.tree.(next)
      end;
      bit := !bit / 2
    done;
    !pos
end

module Soa = Bn_agents.Soa

let simulate rng params ~kinds ~money_per_agent =
  let { n; rounds; benefit; cost } = params in
  if Array.length kinds <> n then invalid_arg "Scrip.simulate: kinds arity";
  let scrip = Soa.I32.create n in
  let total_money = int_of_float (money_per_agent *. float_of_int n) in
  (* The naive loop deals round-robin; in closed form agent i receives
     base + 1 exactly when i < extra. *)
  let base = total_money / n and extra = total_money mod n in
  for i = 0 to n - 1 do
    Soa.I32.uset scrip i (Int32.of_int (base + if i < extra then 1 else 0))
  done;
  let utilities = Soa.F64.create n in
  let willing_pred i =
    match kinds.(i) with
    | Standard k -> Int32.to_int (Soa.I32.uget scrip i) < k
    | Hoarder | Altruist -> true
  in
  let willing = Array.init n willing_pred in
  let fen = Fenwick.create n in
  Array.iteri (fun i w -> if w then Fenwick.update fen i 1) willing;
  let refresh i =
    let now = willing_pred i in
    if now <> willing.(i) then begin
      willing.(i) <- now;
      Fenwick.update fen i (if now then 1 else -1)
    end
  in
  let satisfied = ref 0 and requests = ref 0 and starved = ref 0 and unserved = ref 0 in
  for _ = 1 to rounds do
    let chooser = Bn_util.Prng.int rng n in
    let wants = match kinds.(chooser) with Hoarder -> false | Standard _ | Altruist -> true in
    if wants then begin
      incr requests;
      if Int32.to_int (Soa.I32.uget scrip chooser) < 1 then incr starved
      else begin
        let w = fen.Fenwick.total - if willing.(chooser) then 1 else 0 in
        if w = 0 then incr unserved
        else begin
          let r = Bn_util.Prng.int rng w in
          (* Rank r among the willing agents with the chooser excluded:
             skip the chooser's own slot when it sits at or below r. *)
          let r = if willing.(chooser) && Fenwick.prefix fen chooser <= r then r + 1 else r in
          let volunteer = Fenwick.select fen r in
          incr satisfied;
          Soa.F64.uset utilities chooser (Soa.F64.uget utilities chooser +. benefit);
          Soa.F64.uset utilities volunteer (Soa.F64.uget utilities volunteer -. cost);
          match kinds.(volunteer) with
          | Altruist -> ()
          | Standard _ | Hoarder ->
            Soa.I32.uset scrip chooser (Int32.pred (Soa.I32.uget scrip chooser));
            Soa.I32.uset scrip volunteer (Int32.succ (Soa.I32.uget scrip volunteer));
            refresh chooser;
            refresh volunteer
        end
      end
    end
  done;
  {
    utilities = Soa.F64.to_array utilities;
    satisfied = !satisfied;
    requests = !requests;
    starved = !starved;
    unserved = !unserved;
    final_scrip = Soa.I32.to_array scrip;
  }

let efficiency params stats =
  if params.rounds = 0 then 0.0
  else float_of_int stats.satisfied /. float_of_int params.rounds

let avg_utility stats ~who =
  let selected =
    List.filteri (fun i _ -> who i) (Array.to_list stats.utilities)
  in
  Bn_util.Stats.mean selected

let best_threshold rng params ~others ~money_per_agent ~candidates =
  let seed_base = Bn_util.Prng.int rng 1_000_000 in
  let evaluate candidate =
    (* Common random numbers: same seed for every candidate. *)
    let local = Bn_util.Prng.create (seed_base * 7919) in
    let kinds =
      Array.init params.n (fun i -> if i = 0 then Standard candidate else Standard others)
    in
    let stats = simulate local params ~kinds ~money_per_agent in
    stats.utilities.(0)
  in
  match candidates with
  | [] -> invalid_arg "Scrip.best_threshold: no candidates"
  | c0 :: rest ->
    List.fold_left
      (fun (bc, bu) c ->
        let u = evaluate c in
        if u > bu then (c, u) else (bc, bu))
      (c0, evaluate c0) rest

let symmetric_equilibrium rng params ~money_per_agent ~candidates =
  (* Iterate the empirical best-response map from the middle candidate until
     a fixed point or a short cycle; return the fixed point if found. *)
  let start = List.nth candidates (List.length candidates / 2) in
  let rec go k visited steps =
    if steps > 12 then None
    else begin
      let k', _ = best_threshold rng params ~others:k ~money_per_agent ~candidates in
      if k' = k then Some k
      else if List.mem k' visited then None
      else go k' (k' :: visited) (steps + 1)
    end
  in
  go start [ start ] 0
