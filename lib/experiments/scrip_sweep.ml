module B = Beyond_nash

type gof_row = {
  n : int;
  steps : int;
  gof : B.Steady_state.gof;
  mean_balance : float;
}

let threshold = 5
let money = 2.5
let shards = 64

let ladder ~n_max =
  List.filter (fun n -> n <= n_max) [ 1_000; 10_000; 100_000; 1_000_000 ]

(* Fewer sweeps at larger n: the batch chain is exactly stationary-law
   preserving, so what the steps buy is decorrelation from the
   concentrated initial deal, and the empirical histogram tightens as
   1/√n anyway. *)
let steps_for n = if n >= 1_000_000 then 60 else if n >= 100_000 then 100 else if n >= 10_000 then 200 else 400

let gof_ladder ?(jobs = 1) ?(n_max = 100_000) ~seed () =
  List.map
    (fun n ->
      let params = { (B.Scrip.default_params ~n) with B.Scrip.rounds = 0 } in
      let steps = steps_for n in
      let st =
        B.Scrip_soa.run ~jobs ~shards ~seed ~steps ~params
          ~kind_of:(fun _ -> B.Scrip.Standard threshold)
          ~money_per_agent:money ()
      in
      {
        n;
        steps;
        gof = B.Scrip_soa.goodness_of_fit st ~threshold ~money_per_agent:money;
        mean_balance = st.B.Scrip_soa.mean_balance;
      })
    (ladder ~n_max)

let br_grid ~cost = Array.init 11 (fun i -> cost *. (0.5 +. (0.1 *. float_of_int i)))

(* Expected utility loss of the cutoff rule "share iff kick > tau"
   relative to the dominant cutoff tau = cost, in closed form for the
   Pareto kick law P(kick > t) = (scale/t)^e (t >= scale):
   E[kick · 1{a < kick <= b}] = (e/(e-1)) scale^e (a^{1-e} - b^{1-e}). *)
let true_regret ~cost tau =
  let p = B.Gnutella.default_params ~users:10 in
  let s = p.B.Gnutella.kick_scale and e = p.B.Gnutella.zipf_exponent in
  let seg a b =
    (* E[(kick - cost) · 1{a < kick <= b}] for scale <= a <= b. *)
    let ek = e /. (e -. 1.0) *. (s ** e) *. ((a ** (1.0 -. e)) -. (b ** (1.0 -. e))) in
    let pr = ((s /. a) ** e) -. ((s /. b) ** e) in
    ek -. (cost *. pr)
  in
  if tau > cost then seg cost tau
  else if tau < cost then -.seg (Float.max s tau) cost
  else 0.0

let br_cutoff ~seed ~n ~cost =
  (* Empirical best response to the sharing decision: an agent with kick
     κ who shares gets κ − cost (the download term does not depend on
     its own action), so the exact best-response rule is the cutoff
     κ* = cost. The estimator picks the cutoff maximizing the mean
     sampled utility over n kicks — consistent, with O(1/√n)
     fluctuation across the grid. *)
  let p = B.Gnutella.default_params ~users:10 in
  let rng = B.Prng.create seed in
  let grid = br_grid ~cost in
  let sums = Array.make (Array.length grid) 0.0 in
  for _ = 1 to n do
    let kick =
      B.Gnutella.zipf_sample rng ~scale:p.B.Gnutella.kick_scale
        ~exponent:p.B.Gnutella.zipf_exponent
    in
    for i = 0 to Array.length grid - 1 do
      if kick > grid.(i) then sums.(i) <- sums.(i) +. (kick -. cost)
    done
  done;
  let best = ref 0 in
  Array.iteri (fun i s -> if s > sums.(!best) then best := i) sums;
  (grid.(!best), true_regret ~cost grid.(!best))

let render_gof ~jobs ~n_max ~seed =
  let tab =
    B.Tab.create
      ~title:
        (Printf.sprintf
           "scrip SoA engine vs analytic steady state (threshold %d, m = %.1f, %d shards, 1%% chi-square)"
           threshold money shards)
      [ "n"; "steps"; "X^2"; "df"; "critical"; "TV dist"; "mean"; "fit" ]
  in
  List.iter
    (fun r ->
      B.Tab.add_row tab
        [
          string_of_int r.n;
          string_of_int r.steps;
          B.Tab.fmt_float r.gof.B.Steady_state.stat;
          string_of_int r.gof.B.Steady_state.df;
          B.Tab.fmt_float r.gof.B.Steady_state.critical;
          Printf.sprintf "%.4f" r.gof.B.Steady_state.tv;
          B.Tab.fmt_float r.mean_balance;
          (if r.gof.B.Steady_state.pass then "pass" else "REJECT");
        ])
    (gof_ladder ~jobs ~n_max ~seed ());
  B.Tab.print tab

let render_mixed ~jobs ~n_max ~seed =
  let n = min n_max 100_000 in
  let params = { (B.Scrip.default_params ~n) with B.Scrip.rounds = 0 } in
  (* 80% threshold players, 15% hoarders, 5% altruists — the §5 cast. *)
  let kind_of i =
    let r = i mod 20 in
    if r < 16 then B.Scrip.Standard threshold
    else if r < 19 then B.Scrip.Hoarder
    else B.Scrip.Altruist
  in
  let steps = steps_for n in
  let st =
    B.Scrip_soa.run ~jobs ~shards ~seed ~steps ~params ~kind_of ~money_per_agent:money ()
  in
  let all_std =
    B.Scrip_soa.run ~jobs ~shards ~seed ~steps ~params
      ~kind_of:(fun _ -> B.Scrip.Standard threshold)
      ~money_per_agent:money ()
  in
  let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b) in
  let tab =
    B.Tab.create
      ~title:
        (Printf.sprintf
           "mixed population, n = %d, %d sweeps: hoarders freeze the money supply" n steps)
      [ "population"; "starved %"; "served %"; "hoarding (> k) %"; "u(std)"; "u(hoard)"; "u(altru)" ]
  in
  let row label (s : B.Scrip_soa.soa_stats) =
    let over = s.B.Scrip_soa.dist.(Array.length s.B.Scrip_soa.dist - 1) in
    B.Tab.add_row tab
      [
        label;
        Printf.sprintf "%.1f" (pct s.B.Scrip_soa.starved s.B.Scrip_soa.requests);
        Printf.sprintf "%.1f" (pct s.B.Scrip_soa.satisfied s.B.Scrip_soa.requests);
        Printf.sprintf "%.2f" (pct over s.B.Scrip_soa.n);
        B.Tab.fmt_float s.B.Scrip_soa.avg_utility.(0);
        B.Tab.fmt_float s.B.Scrip_soa.avg_utility.(1);
        B.Tab.fmt_float s.B.Scrip_soa.avg_utility.(2);
      ]
  in
  row "all standard" all_std;
  row "80/15/5 std/hoard/altru" st;
  B.Tab.print tab;
  B.Out.printf "money conservation: %d units before and after (%.1f per agent)\n\n"
    st.B.Scrip_soa.total_scrip
    (float_of_int st.B.Scrip_soa.total_scrip /. float_of_int n)

let render_gnutella ~jobs ~n_max ~seed =
  let tab =
    B.Tab.create
      ~title:
        (Printf.sprintf
           "gnutella free riding at scale (SoA engine, %d shards, 5 queries/user)" shards)
      [ "users"; "free riders %"; "top 1% share"; "top 10% share"; "gini" ]
  in
  List.iter
    (fun users ->
      let params =
        { (B.Gnutella.default_params ~users) with B.Gnutella.queries = 5 * users }
      in
      let st = B.Gnutella_soa.simulate ~jobs ~shards (B.Prng.create seed) params in
      B.Tab.add_row tab
        [
          string_of_int users;
          Printf.sprintf "%.1f" (100.0 *. st.B.Gnutella.free_rider_fraction);
          Printf.sprintf "%.3f" st.B.Gnutella.top1_response_share;
          Printf.sprintf "%.3f" st.B.Gnutella.top10_response_share;
          Printf.sprintf "%.3f" st.B.Gnutella.gini_load;
        ])
    (ladder ~n_max);
  B.Tab.print tab

let render_br ~n_max ~seed =
  let cost = (B.Gnutella.default_params ~users:10).B.Gnutella.cost in
  let tab =
    B.Tab.create
      ~title:
        (Printf.sprintf
           "empirical best-response kick cutoff (dominant strategy: share iff kick > cost = %.2f)"
           cost)
      [ "n kicks"; "trials"; "hit rate"; "mean |cutoff - cost|"; "mean regret/agent" ]
  in
  (* Small samples too: the heavy Zipf tail makes the estimator land off
     the dominant cutoff at n ≈ 30, and the hit rate climbing to 1 is
     the convergence claim. Trial count shrinks as n grows to bound the
     total draw budget. *)
  let ns = [ 30; 100; 1_000 ] @ List.filter (fun n -> n >= 10_000) (ladder ~n_max) in
  List.iter
    (fun n ->
      let trials = max 20 (min 400 (100_000 / n)) in
      let hits = ref 0 and gap = ref 0.0 and regret = ref 0.0 in
      for trial = 0 to trials - 1 do
        let tau, r = br_cutoff ~seed:(seed + (7919 * trial)) ~n ~cost in
        if Float.abs (tau -. cost) < 1e-9 then incr hits;
        gap := !gap +. Float.abs (tau -. cost);
        regret := !regret +. r
      done;
      let ft = float_of_int trials in
      B.Tab.add_row tab
        [
          string_of_int n;
          string_of_int trials;
          Printf.sprintf "%.2f" (float_of_int !hits /. ft);
          Printf.sprintf "%.3f" (!gap /. ft);
          Printf.sprintf "%.5f" (!regret /. ft);
        ])
    ns;
  B.Tab.print tab

let render ?(jobs = 1) ?(n_max = 100_000) ?(seed = 2008) () =
  render_gof ~jobs ~n_max ~seed;
  render_mixed ~jobs ~n_max ~seed;
  render_gnutella ~jobs ~n_max ~seed;
  render_br ~n_max ~seed
