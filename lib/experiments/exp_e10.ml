(** E10 — §2's Gnutella free-riding discussion (Adar–Huberman 2000).

    The analytic game shows free riding is the dominant strategy for
    standard utilities; the population simulation with Zipf-distributed
    "kicks" reproduces the measured shape: ~70% of hosts share nothing and
    the top 1% of hosts serve ~half of all responses. *)

module B = Beyond_nash
module G = B.Gnutella

let name = "E10"
let title = "Gnutella free riding: dominant strategy + population shape"

let run ?jobs:_ () =
  B.Out.printf
    "analytic game (n=4, standard utilities): all-free-ride is the unique outcome of\n\
     iterated strict dominance = %b\n\n"
    (G.free_riding_equilibrium ~n:4 ~cost:1.0 ~download_value:5.0);
  let tab =
    B.Tab.create ~title:"population simulation (Zipf kicks; Adar-Huberman targets: 0.70 / 0.50)"
      [ "users"; "cost"; "free riders"; "top 1% load"; "top 10% load"; "Gini(load)" ]
  in
  let rng = B.Prng.create 1848 in
  List.iter
    (fun (users, cost) ->
      let p = { (G.default_params ~users) with G.cost } in
      let s = B.Gnutella_soa.simulate rng p in
      B.Tab.add_row tab
        [
          string_of_int users;
          B.Tab.fmt_float cost;
          B.Tab.fmt_float s.G.free_rider_fraction;
          B.Tab.fmt_float s.G.top1_response_share;
          B.Tab.fmt_float s.G.top10_response_share;
          B.Tab.fmt_float s.G.gini_load;
        ])
    [ (2000, 1.0); (5000, 1.0); (10000, 1.0); (5000, 0.5); (5000, 2.0) ];
  B.Tab.print tab;
  (* Small analytic game with one enthusiast. *)
  let kicks = [| 2.0; 0.0; 0.0; 0.0 |] in
  let g = G.sharing_game ~n:4 ~cost:1.0 ~kicks ~download_value:5.0 in
  (match B.Dominance.solves_by_dominance g with
  | Some profile ->
    B.Out.printf
      "with one enthusiast (kick 2.0 > cost 1.0): dominance solves to [%s] — the enthusiast\n\
       shares, everyone else free rides (the paper's reading of the sharing hosts)\n\n"
      (String.concat ";"
         (List.map (fun a -> if a = 1 then "share" else "freeride") (Array.to_list profile)))
  | None -> B.Out.print_endline "unexpected: not dominance-solvable\n")
