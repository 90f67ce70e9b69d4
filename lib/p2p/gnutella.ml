type params = {
  users : int;
  cost : float;
  kick_scale : float;
  zipf_exponent : float;
  queries : int;
}

let default_params ~users =
  { users; cost = 1.0; kick_scale = 0.367; zipf_exponent = 1.2; queries = 50 * users }

type stats = {
  sharers : int;
  free_rider_fraction : float;
  top1_response_share : float;
  top10_response_share : float;
  gini_load : float;
}

(* A Zipf-ish heavy-tailed sample: scale / u^(1/exponent). *)
let zipf_sample rng ~scale ~exponent =
  let u = 1.0 -. Bn_util.Prng.float rng in
  scale /. (u ** (1.0 /. exponent))

(* Load-concentration statistics from the raw serve counts, the back end
   of the SoA engine ([Gnutella_soa]). Its shards = 1 run is
   QCheck-pinned to the boxed reference loop in the tests, which shares
   this function — so it must stay a pure function of
   (users, sharers, served). *)
let stats_of_load ~users ~sharers ~served =
  let total_served = Array.fold_left ( + ) 0 served in
  let sorted = Array.copy served in
  Array.sort (fun a b -> compare b a) sorted;
  let top_share pct =
    if total_served = 0 then 0.0
    else begin
      let k = max 1 (users * pct / 100) in
      let top = ref 0 in
      for i = 0 to k - 1 do
        top := !top + sorted.(i)
      done;
      float_of_int !top /. float_of_int total_served
    end
  in
  {
    sharers;
    free_rider_fraction = 1.0 -. (float_of_int sharers /. float_of_int users);
    top1_response_share = top_share 1;
    top10_response_share = top_share 10;
    gini_load = Bn_util.Stats.gini (List.map float_of_int (Array.to_list served));
  }

let sharing_game ~n ~cost ~kicks ~download_value =
  if Array.length kicks <> n then invalid_arg "Gnutella.sharing_game: kicks arity";
  Bn_game.Normal_form.create
    ~action_names:(Array.make n [| "freeride"; "share" |])
    ~actions:(Array.make n 2)
    (fun p ->
      Array.init n (fun i ->
          let others_share = Array.exists (fun j -> j <> i && p.(j) = 1) (Array.init n Fun.id) in
          let dl = if others_share then download_value else 0.0 in
          dl +. if p.(i) = 1 then kicks.(i) -. cost else 0.0))

let free_riding_equilibrium ~n ~cost ~download_value =
  let game = sharing_game ~n ~cost ~kicks:(Array.make n 0.0) ~download_value in
  match Bn_game.Dominance.solves_by_dominance game with
  | Some profile -> Array.for_all (( = ) 0) profile
  | None -> false
