module Dist = Bn_util.Dist

type t = {
  n : int;
  num_types : int array;
  actions : int array;
  player_names : string array;
  type_names : string array array;
  action_names : string array array;
  prior : int array Dist.t;
  u : types:int array -> acts:int array -> float array;
}

let create ?player_names ?type_names ?action_names ~num_types ~actions ~prior u =
  let n = Array.length num_types in
  if n = 0 then invalid_arg "Bayesian.create: no players";
  if Array.length actions <> n then invalid_arg "Bayesian.create: actions arity";
  Array.iter (fun k -> if k <= 0 then invalid_arg "Bayesian.create: empty type set") num_types;
  Array.iter (fun k -> if k <= 0 then invalid_arg "Bayesian.create: empty action set") actions;
  List.iter
    (fun tp ->
      if Array.length tp <> n then invalid_arg "Bayesian.create: prior profile arity";
      Array.iteri
        (fun i ty ->
          if ty < 0 || ty >= num_types.(i) then
            invalid_arg "Bayesian.create: prior type out of range")
        tp)
    (Dist.support prior);
  let player_names =
    match player_names with
    | Some names -> names
    | None -> Array.init n (fun i -> Printf.sprintf "P%d" (i + 1))
  in
  let type_names =
    match type_names with
    | Some names -> names
    | None -> Array.init n (fun i -> Array.init num_types.(i) string_of_int)
  in
  let action_names =
    match action_names with
    | Some names -> names
    | None -> Array.init n (fun i -> Array.init actions.(i) string_of_int)
  in
  { n; num_types; actions; player_names; type_names; action_names; prior; u }

let n_players t = t.n
let num_types t i = t.num_types.(i)
let num_actions t i = t.actions.(i)
let prior t = t.prior
let utility t ~types ~acts = t.u ~types ~acts

type pure_strategy = int array
type behavioral = float array array

let pure_to_behavioral t ~player s =
  Array.map (fun a -> Bn_game.Mixed.pure ~num_actions:t.actions.(player) a) s

let pure_strategies t ~player =
  let dims = Array.make t.num_types.(player) t.actions.(player) in
  Bn_util.Combin.profiles dims

(* Distribution over action profiles given a type profile. *)
let action_dist t profile types =
  let per_player =
    List.init t.n (fun i ->
        Dist.of_list (Array.to_list (Array.mapi (fun a p -> (a, p)) profile.(i).(types.(i)))))
  in
  Dist.map Array.of_list (Dist.product_list per_player)

let ex_ante_utility t profile =
  let total = Array.make t.n 0.0 in
  List.iter
    (fun (types, p_ty) ->
      List.iter
        (fun (acts, p_a) ->
          let u = t.u ~types ~acts in
          for i = 0 to t.n - 1 do
            total.(i) <- total.(i) +. (p_ty *. p_a *. u.(i))
          done)
        (Dist.to_list (action_dist t profile types)))
    (Dist.to_list t.prior);
  total

let interim_utility t profile ~player ~ptype =
  match Dist.filter (fun types -> types.(player) = ptype) t.prior with
  | None -> invalid_arg "Bayesian.interim_utility: zero-probability type"
  | Some conditional ->
    Dist.expect
      (fun types ->
        Dist.expect (fun acts -> (t.u ~types ~acts).(player)) (action_dist t profile types))
      conditional

let outcome_dist t profile =
  Dist.bind t.prior (fun types ->
      Dist.map (fun acts -> (types, acts)) (action_dist t profile types))

let positive_types t ~player =
  List.sort_uniq compare (List.map (fun tp -> tp.(player)) (Dist.support t.prior))

let is_bayes_nash ?(eps = 1e-9) t profile =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    List.iter
      (fun ptype ->
        let current = interim_utility t profile ~player:i ~ptype in
        for a = 0 to t.actions.(i) - 1 do
          let deviated = Array.copy profile in
          let strat = Array.map Array.copy profile.(i) in
          strat.(ptype) <- Bn_game.Mixed.pure ~num_actions:t.actions.(i) a;
          deviated.(i) <- strat;
          if interim_utility t deviated ~player:i ~ptype > current +. eps then ok := false
        done)
      (positive_types t ~player:i)
  done;
  !ok

(* On pure profiles the interim utility of player [i] at type [ptype]
   playing action [a] depends only on the others' pure strategies: every
   action distribution is a point mass, so [interim_utility] folds
   [p *. (0.0 +. 1.0 *. u)] over the conditional prior, which is what a
   table entry holds. Entries are keyed by (player, type, action, the
   others' strategy indices) and filled on first read; NaN marks an empty
   slot (an entry whose value is NaN is just recomputed). *)
let pure_bayes_nash ?(eps = 1e-9) t =
  let n = t.n in
  let all = Array.init n (fun i -> Array.of_list (pure_strategies t ~player:i)) in
  let counts = Array.map Array.length all in
  (* The types the check visits, each with its conditional prior. *)
  let positive =
    Array.init n (fun i ->
        Array.of_list
          (List.map
             (fun ptype ->
               match Dist.filter (fun types -> types.(i) = ptype) t.prior with
               | None -> invalid_arg "Bayesian.interim_utility: zero-probability type"
               | Some c -> (ptype, Dist.to_list c))
             (positive_types t ~player:i)))
  in
  (* Player [i]'s entry at [ptype] playing [a] against the others'
     strategy profile with index [idx] sits at
     [(idx * num_types + ptype) * actions + a] of [tables.(i)]. *)
  let tables =
    Array.init n (fun i ->
        Array.make
          (Array.fold_left ( * ) 1 counts / counts.(i) * t.num_types.(i) * t.actions.(i))
          Float.nan)
  in
  let interim combo i idx (ptype, conditional) a =
    let k = (((idx * t.num_types.(i)) + ptype) * t.actions.(i)) + a in
    if Float.is_nan tables.(i).(k) then
      tables.(i).(k) <-
        List.fold_left
          (fun acc (types, p) ->
            let acts =
              Array.init n (fun j -> if j = i then a else all.(j).(combo.(j)).(types.(j)))
            in
            acc +. (p *. (0.0 +. (1.0 *. (t.u ~types ~acts).(i)))))
          0.0 conditional;
    tables.(i).(k)
  in
  let is_equilibrium combo =
    let rec player i =
      i >= n
      ||
      let idx = ref 0 in
      for j = 0 to n - 1 do
        if j <> i then idx := (!idx * counts.(j)) + combo.(j)
      done;
      let s = all.(i).(combo.(i)) in
      Array.for_all
        (fun ((ptype, _) as typ) ->
          let current = interim combo i !idx typ s.(ptype) in
          let rec no_gain a =
            a >= t.actions.(i)
            || ((not (interim combo i !idx typ a > current +. eps)) && no_gain (a + 1))
          in
          no_gain 0)
        positive.(i)
      && player (i + 1)
    in
    player 0
  in
  let acc = ref [] in
  Bn_util.Combin.iter_profiles counts (fun combo ->
      if is_equilibrium combo then acc := Array.init n (fun i -> all.(i).(combo.(i))) :: !acc);
  List.rev !acc

let agent_form t =
  let agents =
    Array.of_list
      (List.concat_map
         (fun i -> List.map (fun ty -> (i, ty)) (positive_types t ~player:i))
         (List.init t.n Fun.id))
  in
  
  let acts = Array.map (fun (i, _) -> t.actions.(i)) agents in
  let agent_index = Hashtbl.create 16 in
  Array.iteri (fun idx key -> Hashtbl.replace agent_index key idx) agents;
  let game =
    Bn_game.Normal_form.create
      ~player_names:(Array.map (fun (i, ty) -> Printf.sprintf "%s:%s" t.player_names.(i) t.type_names.(i).(ty)) agents)
      ~actions:acts
      (fun p ->
        (* Each agent's payoff: interim utility of its (player, type) when
           all agents play their assigned pure action. *)
        Array.mapi
          (fun _idx (i, ty) ->
            match Dist.filter (fun types -> types.(i) = ty) t.prior with
            | None -> 0.0
            | Some conditional ->
              Dist.expect
                (fun types ->
                  let acts_arr =
                    Array.init t.n (fun j ->
                        match Hashtbl.find_opt agent_index (j, types.(j)) with
                        | Some aj -> p.(aj)
                        | None -> 0)
                  in
                  (t.u ~types ~acts:acts_arr).(i))
                conditional
          )
          agents)
  in
  (game, agents)
