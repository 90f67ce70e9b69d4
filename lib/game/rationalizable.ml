module Simplex = Bn_lp.Simplex

(* LP: find a mixture y over player's actions except [a] and a margin m,
   maximizing m subject to  sum_b y_b u(b, s) - u(a, s) >= m  for every
   opposing pure profile s, sum y = 1. Dominated iff optimal m > eps. The
   free margin is encoded as mplus - mminus. Rows follow the opposing
   profiles in row-major order; [u(b, s)] is read at [s]'s flat index
   shifted by [b]'s stride. *)
let mixed_dominates ?(eps = 1e-9) g ~player a =
  let own = Normal_form.num_actions g player in
  if a < 0 || a >= own then invalid_arg "Rationalizable.mixed_dominates: action out of range";
  let k = own - 1 in
  if k = 0 then None
  else begin
    let others = Array.init k (fun c -> if c < a then c else c + 1) in
    let dims = Normal_form.actions g in
    dims.(player) <- 1;
    let st = Normal_form.stride g player in
    let nvars = k + 2 in
    let rows = ref [] in
    Bn_util.Combin.iter_profiles dims (fun s ->
        let base = Normal_form.index_of g s in
        let payoff b = Normal_form.payoff_by_index g (base + (b * st)) player in
        let ua = payoff a in
        rows :=
          Simplex.ge
            (Array.init nvars (fun c ->
                 if c < k then payoff others.(c) -. ua else if c = k then -1.0 else 1.0))
            0.0
          :: !rows);
    let sum_row = Simplex.eq (Array.init nvars (fun c -> if c < k then 1.0 else 0.0)) 1.0 in
    let objective = Array.init nvars (fun c -> if c = k then 1.0 else if c = k + 1 then -1.0 else 0.0) in
    match Simplex.maximize objective (sum_row :: List.rev !rows) with
    | Simplex.Optimal { solution; value } when value > eps ->
      let mix = Array.make own 0.0 in
      Array.iteri (fun idx b -> mix.(b) <- Float.max 0.0 solution.(idx)) others;
      let total = Array.fold_left ( +. ) 0.0 mix in
      Some (Array.map (fun x -> x /. total) mix)
    | Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded -> None
  end

(* Restrict the game to surviving actions, preserving original indices via
   the mapping arrays. *)
let restrict g surviving =
  let n = Normal_form.n_players g in
  let arr = Array.map Array.of_list surviving in
  Normal_form.create
    ~actions:(Array.map Array.length arr)
    (fun p ->
      let original = Array.init n (fun i -> arr.(i).(p.(i))) in
      Normal_form.payoff_vector g original)

let rationalizable g =
  let n = Normal_form.n_players g in
  let surviving = Array.init n (fun i -> List.init (Normal_form.num_actions g i) Fun.id) in
  let changed = ref true in
  while !changed do
    changed := false;
    let current = restrict g surviving in
    for i = 0 to n - 1 do
      if List.length surviving.(i) > 1 then begin
        (* Remove one action per pass to keep the reduction well-founded:
           the last dominated one, so the scan runs from the top and stops
           at the first LP that finds a dominating mixture. *)
        let rec last_dominated local =
          if local < 0 then None
          else if mixed_dominates current ~player:i local <> None then Some local
          else last_dominated (local - 1)
        in
        match last_dominated (List.length surviving.(i) - 1) with
        | None -> ()
        | Some local ->
          surviving.(i) <- List.filteri (fun idx _ -> idx <> local) surviving.(i);
          changed := true
      end
    done
  done;
  surviving

let is_dominance_solvable g =
  Array.for_all (fun s -> List.length s = 1) (rationalizable g)
