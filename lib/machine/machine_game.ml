module Dist = Bn_util.Dist

type t = {
  machines : Machine.t array array;
  num_types : int array;
  prior : int array Dist.t;
  utility :
    player:int -> types:int array -> acts:int array -> complexities:float array -> float;
}

let create ~machines ~num_types ~prior ~utility =
  let n = Array.length machines in
  if n = 0 then invalid_arg "Machine_game.create: no players";
  if Array.length num_types <> n then invalid_arg "Machine_game.create: num_types arity";
  Array.iter
    (fun space -> if Array.length space = 0 then invalid_arg "Machine_game.create: empty machine space")
    machines;
  List.iter
    (fun tp ->
      if Array.length tp <> n then invalid_arg "Machine_game.create: prior profile arity";
      Array.iteri
        (fun i ty ->
          if ty < 0 || ty >= num_types.(i) then
            invalid_arg "Machine_game.create: prior type out of range")
        tp)
    (Dist.support prior);
  { machines; num_types; prior; utility }

let simple ~machines ~base ~charge =
  let n = Array.length machines in
  create ~machines ~num_types:(Array.make n 1)
    ~prior:(Dist.return (Array.make n 0))
    ~utility:(fun ~player ~types:_ ~acts ~complexities ->
      (base acts).(player) -. (charge.(player) *. complexities.(player)))

let n_players t = Array.length t.machines
let machine_space t ~player = t.machines.(player)

(* [Some acts] when every distribution is a point mass ([(a, 1.0)]). *)
let point_masses dists =
  let n = Array.length dists in
  let acts = Array.make n 0 in
  let rec go i =
    if i = n then Some acts
    else
      match Dist.to_list dists.(i) with
      | [ (a, 1.0) ] ->
        acts.(i) <- a;
        go (i + 1)
      | _ -> None
  in
  go 0

(* When every machine outputs a point mass the action product is the
   single profile [(acts, 1.0)], whose expectation the list path computes
   as [0.0 +. 1.0 *. u]; the fast path returns exactly that, without
   building the product. *)
let expected_utility t ~choice ~player =
  let n = n_players t in
  let ms = Array.init n (fun i -> t.machines.(i).(choice.(i))) in
  Dist.expect
    (fun types ->
      let complexities = Array.init n (fun i -> ms.(i).Machine.complexity types.(i)) in
      let dists = Array.init n (fun i -> ms.(i).Machine.act types.(i)) in
      match point_masses dists with
      | Some acts -> 0.0 +. (1.0 *. t.utility ~player ~types ~acts ~complexities)
      | None ->
        Dist.expect
          (fun acts -> t.utility ~player ~types ~acts:(Array.of_list acts) ~complexities)
          (Dist.product_list (Array.to_list dists)))
    t.prior

(* [player]'s utility at [choice] and its best switch, reading utilities
   from [eu]: the first alternative must beat the current utility by more
   than 1e-9, a later one the best so far. *)
let switch eu t ~choice ~player =
  let current = eu choice player in
  let best = ref None in
  Array.iteri
    (fun m _ ->
      if m <> choice.(player) then begin
        let alt = Array.copy choice in
        alt.(player) <- m;
        let u = eu alt player in
        let better_than_best =
          match !best with None -> u > current +. 1e-9 | Some (_, ub) -> u > ub
        in
        if better_than_best then best := Some (m, u)
      end)
    t.machines.(player);
  (current, !best)

let direct t choice player = expected_utility t ~choice ~player

let best_deviation t ~choice ~player = snd (switch (direct t) t ~choice ~player)

let nash_by eu ~eps t choice =
  let rec ok i =
    i >= n_players t
    ||
    match switch eu t ~choice ~player:i with
    | current, Some (_, u) when u > current +. eps -> false
    | _, (Some _ | None) -> ok (i + 1)
  in
  ok 0

let is_nash ?(eps = 1e-9) t ~choice = nash_by (direct t) ~eps t choice

let all_choices t =
  Bn_util.Combin.profiles (Array.map Array.length t.machines)

(* Every expected utility of the game, evaluated once, behind a lookup:
   player [i]'s at the profile with row-major index [idx] sits at
   [idx * n + i]. *)
let table t =
  let n = n_players t in
  let sizes = Array.map Array.length t.machines in
  let index choice =
    let idx = ref 0 in
    Array.iteri (fun i c -> idx := (!idx * sizes.(i)) + c) choice;
    !idx
  in
  let eu = Array.make (Array.fold_left ( * ) n sizes) 0.0 in
  Bn_util.Combin.iter_profiles sizes (fun choice ->
      let base = index choice * n in
      for i = 0 to n - 1 do
        eu.(base + i) <- expected_utility t ~choice ~player:i
      done);
  fun choice player -> eu.((index choice * n) + player)

let nash_equilibria t =
  let eu = table t in
  List.filter (nash_by eu ~eps:1e-9 t) (all_choices t)

let nonexistence_certificate t =
  let eu = table t in
  let entries =
    List.map
      (fun choice ->
        let rec find i =
          if i >= n_players t then None
          else
            match switch eu t ~choice ~player:i with
            | current, Some (m, u) when u > current +. 1e-9 -> Some (choice, i, m)
            | _, (Some _ | None) -> find (i + 1)
        in
        find 0)
      (all_choices t)
  in
  if List.exists (( = ) None) entries then None
  else Some (List.map Option.get entries)

let to_normal_form t =
  let actions = Array.map Array.length t.machines in
  let action_names =
    Array.map (fun space -> Array.map (fun m -> m.Machine.name) space) t.machines
  in
  Bn_game.Normal_form.create ~action_names ~actions (fun choice ->
      Array.init (n_players t) (fun i -> expected_utility t ~choice ~player:i))
