(* solver-mix: a seeded stream of solution-concept queries, one at a time
   on one domain (-j 1), each under [limit]. It is the only workload where
   the solver layers (game, lp, robust, core and the other
   representations) do most of the work. *)

module B = Beyond_nash

type kind =
  | Nash
  | Dominance
  | Learning
  | Robust_mixed
  | Robust_holds
  | Robust_fails
  | Lp_correlated
  | Lp_zero_sum
  | Lp_rationalizable
  | Bayesian
  | Extensive
  | Awareness
  | Machine
  | Repeated

let kind_name = function
  | Nash -> "nash"
  | Dominance -> "dominance"
  | Learning -> "learning"
  | Robust_mixed -> "robust_mixed"
  | Robust_holds -> "robust_holds"
  | Robust_fails -> "robust_fails"
  | Lp_correlated -> "lp_correlated"
  | Lp_zero_sum -> "lp_zero_sum"
  | Lp_rationalizable -> "lp_rationalizable"
  | Bayesian -> "bayesian"
  | Extensive -> "extensive"
  | Awareness -> "awareness"
  | Machine -> "machine"
  | Repeated -> "repeated"

(* Queries of each kind in one block of the stream. When the benchmark was
   defined, these counts kept every layer under about half of the
   completed-query time (NOTES.md); the block order is shuffled by the
   seed. *)
let block =
  [
    (Nash, 400);
    (Dominance, 400);
    (Learning, 30);
    (Robust_mixed, 330);
    (Robust_holds, 70);
    (Robust_fails, 360);
    (Lp_correlated, 1);
    (Lp_zero_sum, 170);
    (Lp_rationalizable, 40);
    (Bayesian, 27);
    (Extensive, 400);
    (Awareness, 48);
    (Machine, 14);
    (Repeated, 170);
  ]

(* Well above the slowest query that terminates (a 5x5 correlated query,
   up to ~0.4 s on a 2-vCPU Xeon); a query still running at the limit is
   abandoned and counted as failed. *)
let limit = 1.5

let eps = 1e-6

(* A query runs its timed solver call and hands back the untimed check of
   its answer. *)
type query = { kind : kind; solve : unit -> unit -> bool }

let int_payoff rng = float_of_int (B.Prng.int rng 21 - 10)

let matrix rng r c = Array.init r (fun _ -> Array.init c (fun _ -> int_payoff rng))

let game2 rng =
  let r = 2 + B.Prng.int rng 4 and c = 2 + B.Prng.int rng 4 in
  B.Normal_form.of_bimatrix (matrix rng r c) (matrix rng r c)

(* [Normal_form.create] calls the payoff function once per profile. *)
let game_n rng =
  let n = 3 + B.Prng.int rng 6 in
  B.Normal_form.create ~actions:(Array.make n 2) (fun _ -> Array.init n (fun _ -> int_payoff rng))

let welfare g p =
  let w = ref 0.0 in
  for i = 0 to B.Normal_form.n_players g - 1 do
    w := !w +. B.Normal_form.payoff g p i
  done;
  !w

(* Every action of every pure Nash equilibrium survives in [kept]. *)
let keeps_pure_nash g kept =
  List.for_all
    (fun p -> Array.for_all Fun.id (Array.mapi (fun i a -> List.mem a kept.(i)) p))
    (B.Nash.pure_equilibria g)

let random_mixed rng g =
  Array.init (B.Normal_form.n_players g) (fun i ->
      match B.Prng.int rng 3 with
      | 0 -> B.Mixed.pure ~num_actions:(B.Normal_form.num_actions g i) (B.Prng.int rng 2)
      | _ -> B.Mixed.of_weights [| 0.1 +. B.Prng.float rng; 0.1 +. B.Prng.float rng |])

(* A reported violation is real: replaying its joint deviation from the
   pure base profile moves the victim's payoff the way the verdict says. *)
let witness_holds g base (v : B.Robust.violation) =
  let dev = Array.copy base in
  List.iter (fun (i, a) -> dev.(i) <- a) v.B.Robust.deviation;
  let before = B.Normal_form.payoff g base v.B.Robust.victim in
  let after = B.Normal_form.payoff g dev v.B.Robust.victim in
  Float.abs (before -. v.B.Robust.before) <= eps
  && Float.abs (after -. v.B.Robust.after) <= eps
  && if List.mem v.B.Robust.victim v.B.Robust.coalition then after > before else after < before

let bayesian_game rng =
  let prior =
    B.Dist.of_list
      (List.map
         (fun tp -> (tp, 0.1 +. B.Prng.float rng))
         [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ])
  in
  (* [Bayesian] calls the utility on every evaluation, so it reads a table
     drawn up front. *)
  let tbl = Array.init 16 (fun _ -> [| int_payoff rng; int_payoff rng |]) in
  B.Bayesian.create ~num_types:[| 2; 2 |] ~actions:[| 2; 2 |] ~prior (fun ~types ~acts ->
      tbl.((8 * types.(0)) + (4 * types.(1)) + (2 * acts.(0)) + acts.(1)))

let extensive_game rng =
  match B.Prng.int rng 4 with
  | 0 -> B.Canned.centipede ~rounds:(2 + B.Prng.int rng 9)
  | 1 -> B.Canned.ultimatum ~pie:(2 + B.Prng.int rng 7)
  | 2 -> B.Canned.trust ~multiplier:(2 + B.Prng.int rng 4)
  | _ -> B.Canned.take_the_money

let machine_game rng =
  if B.Prng.bool rng then B.Comp_roshambo.game ~extra_randomizers:(B.Prng.bool rng) ()
  else
    let spec =
      B.Primality.default_spec ~bits:(6 + B.Prng.int rng 9)
        ~cost_per_op:(0.01 +. (0.19 *. B.Prng.float rng))
    in
    B.Primality.game (B.Prng.split rng 0) spec

let query rng kind =
  let solve =
    match kind with
    | Nash ->
      let g = game2 rng in
      fun () ->
        let eqs = B.Nash.support_enumeration_2p g in
        fun () -> List.for_all (B.Nash.is_nash ~eps g) eqs
    | Dominance ->
      let g = game2 rng in
      fun () ->
        let _, kept = B.Dominance.iterated_elimination ~mode:B.Dominance.Strict g in
        fun () -> keeps_pure_nash g kept
    | Learning ->
      let g = game2 rng and fp = B.Prng.bool rng in
      let rounds = 1000 in
      fun () ->
        let tr =
          if fp then B.Learning.fictitious_play ~rounds g else B.Learning.replicator ~rounds g
        in
        fun () ->
          tr.B.Learning.rounds <= rounds
          && Array.for_all (B.Mixed.is_valid ~eps) tr.B.Learning.profile
          && Float.abs (tr.B.Learning.final_regret -. B.Nash.max_regret g tr.B.Learning.profile)
             <= eps
    | Robust_mixed ->
      let g = game_n rng in
      let p = random_mixed rng g in
      fun () ->
        let v = B.Solution.check g p B.Solution.Nash in
        fun () -> v = B.Nash.is_nash g p
    | Robust_holds ->
      (* E2's bargaining game: all-stay is k-resilient for every k, so the
         full coalition enumeration runs to the end. *)
      let n = 3 + B.Prng.int rng 6 in
      let k = 1 + B.Prng.int rng n in
      let g = B.Games.bargaining n in
      let stay = B.Mixed.pure_profile g (Array.make n 0) in
      fun () ->
        let v = B.Robust.check_resilience g stay ~k in
        fun () -> v = B.Robust.Holds && B.Nash.is_nash g stay
    | Robust_fails ->
      let g = game_n rng in
      let n = B.Normal_form.n_players g in
      let base = Array.init n (fun _ -> B.Prng.int rng 2) in
      let k = 1 + B.Prng.int rng n and t = B.Prng.int rng 2 in
      let p = B.Mixed.pure_profile g base in
      fun () -> (
        match B.Robust.check_robustness g p ~k ~t with
        | B.Robust.Holds -> fun () -> B.Nash.is_pure_nash g base
        | B.Robust.Fails v -> fun () -> witness_holds g base v)
    | Lp_correlated ->
      let g = game2 rng in
      fun () -> (
        match B.Correlated.max_welfare g with
        | None -> fun () -> false
        | Some (d, w) ->
          fun () ->
            Float.is_finite w
            && B.Correlated.is_correlated_equilibrium ~eps g d
            && List.for_all (fun p -> w >= welfare g p -. eps) (B.Nash.pure_equilibria g))
    | Lp_zero_sum ->
      let r = 2 + B.Prng.int rng 4 and c = 2 + B.Prng.int rng 4 in
      let a = matrix rng r c in
      let g = B.Normal_form.of_bimatrix a (Array.map (Array.map Float.neg) a) in
      fun () -> (
        match B.Zero_sum.value g with
        | None -> fun () -> false
        | Some (v, row, col) ->
          fun () ->
            let p = [| row; col |] in
            B.Nash.is_nash ~eps g p && Float.abs (B.Mixed.expected_payoff g p 0 -. v) <= eps)
    | Lp_rationalizable ->
      let g = game2 rng in
      fun () ->
        let kept = B.Rationalizable.rationalizable g in
        fun () -> keeps_pure_nash g kept
    | Bayesian ->
      let b = bayesian_game rng in
      fun () ->
        let eqs = B.Bayesian.pure_bayes_nash b in
        fun () ->
          List.for_all
            (fun s ->
              B.Bayesian.is_bayes_nash ~eps b
                (Array.mapi (fun i si -> B.Bayesian.pure_to_behavioral b ~player:i si) s))
            eqs
    | Extensive ->
      let t = extensive_game rng in
      fun () ->
        let prof, _ = B.Extensive.backward_induction t in
        fun () -> B.Extensive.is_nash ~eps t (Array.map B.Extensive.behavioral_of_pure prof)
    | Awareness ->
      let p = 0.05 +. (0.9 *. B.Prng.float rng) in
      fun () ->
        let eqs = B.Aware_examples.generalized_equilibria ~p in
        fun () ->
          let a = B.Aware_examples.with_awareness ~p in
          eqs <> [] && List.for_all (B.Solution.generalized_nash ~eps a) eqs
    | Machine ->
      let g = machine_game rng in
      fun () ->
        let eqs = B.Machine_game.nash_equilibria g in
        fun () -> List.for_all (fun choice -> B.Solution.computational_nash ~eps g ~choice) eqs
    | Repeated ->
      let spec =
        {
          B.Frpd.stage = B.Repeated.pd_paper;
          horizon = 2 + B.Prng.int rng 7;
          delta = 0.55 +. (0.4 *. B.Prng.float rng);
          memory_cost = 0.2 *. B.Prng.float rng;
        }
      in
      let tft = B.Automaton.tit_for_tat in
      fun () ->
        let m, u = B.Frpd.best_response spec tft in
        fun () ->
          Float.abs (B.Frpd.utility spec m tft -. u) <= eps
          && List.for_all
               (fun m' -> B.Frpd.utility spec m' tft <= u +. eps)
               (B.Frpd.default_space ~horizon:spec.B.Frpd.horizon)
  in
  { kind; solve }

(* Block [b] of the stream: the [block] counts in a seeded order, with
   inputs drawn from the block's own split stream. *)
let gen_block base b =
  let rng = B.Prng.split base b in
  let kinds = Array.of_list (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) block) in
  B.Prng.shuffle rng kinds;
  Array.map (query rng) kinds

(* Set-up generates the first block's inputs, building every game's flat
   tables; later blocks are generated off the clock as the run needs them. *)
type state = { base : B.Prng.t; mutable first : query array option; mutable next : int }

let setup ~seed =
  let base = B.Prng.create seed in
  { base; first = Some (gen_block base 0); next = 1 }

let next_block st =
  match st.first with
  | Some b ->
    st.first <- None;
    b
  | None ->
    st.next <- st.next + 1;
    gen_block st.base (st.next - 1)

let kinds = Array.of_list (List.map fst block)

let index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

(* What a run keeps: per kind, the seconds of each completed query and the
   failure count; per block (the run's rounds), one outcome for its
   completed queries and one for its failed ones. Nothing grows faster
   than 8 bytes a query. *)
type tally = {
  ok_s : Workload.Samples.t array;
  failed : int array;
  mutable rounds : Measure.outcome list list;
  mutable speeds : float list;
  mutable correct : bool;
}

let tally () =
  {
    ok_s = Array.map (fun _ -> Workload.Samples.create ()) kinds;
    failed = Array.make (Array.length kinds) 0;
    rounds = [];
    speeds = [];
    correct = true;
  }

(* The host's speed is read before every [reading_every]-th query of a
   block (about every 8 ms on the reference machine) and after the last;
   the block's times are scaled by the median reading. *)
let reading_every = 246

(* One block: every query timed under the limit, then every answer checked
   off the clock. An abandoned query or a wrong answer is failed, and a
   wrong answer also fails the run — except from Correlated.max_welfare,
   whose simplex (when this benchmark was defined) cycles, returns None or a
   distribution that is not a correlated equilibrium on some degenerate
   4x4 and 5x5 games (NOTES.md). Those count as failed queries only, so
   the defect shows in [failed] until it is fixed. With [span], each call
   runs inside an [Obs.span] named after its kind. Queries are timed on the
   CPU clock, which leaves out steal. *)
let run_block t ~span queries =
  let readings = ref [] in
  let read () = readings := Clock.reading Clock.Thread_cpu :: !readings in
  let answers =
    Array.mapi
      (fun i q ->
        if i mod reading_every = 0 then read ();
        (* A solver that raises gives a wrong answer, not a crashed run. *)
        let solve () =
          try q.solve () with
          | Measure.Abandoned as e -> raise e
          | e ->
            Printf.eprintf "solver-mix: %s raised %s\n%!" (kind_name q.kind) (Printexc.to_string e);
            fun () -> false
        in
        let call () = Measure.with_limit limit (fun () -> Clock.timed Clock.Thread_cpu solve) in
        let call = if span then fun () -> B.Obs.span ("solver." ^ kind_name q.kind) call else call in
        (q.kind, call ()))
      queries
  in
  read ();
  let speed = Clock.speed !readings in
  let n_ok = ref 0 and ok_s = ref 0.0 and n_bad = ref 0 and bad_s = ref 0.0 in
  Array.iter
    (fun (kind, answer) ->
      let i = index kind in
      match answer with
      | Some (check, dt) when (try check () with _ -> false) ->
        let dt = dt *. speed in
        Workload.Samples.add t.ok_s.(i) dt;
        incr n_ok;
        ok_s := !ok_s +. dt
      | answer ->
        let dt = speed *. match answer with Some (_, dt) -> dt | None -> limit in
        if answer <> None && kind <> Lp_correlated then t.correct <- false;
        t.failed.(i) <- t.failed.(i) + 1;
        incr n_bad;
        bad_s := !bad_s +. dt)
    answers;
  t.rounds <-
    [
      { Measure.items = !n_ok; seconds = !ok_s; ok = true };
      { Measure.items = !n_bad; seconds = !bad_s; ok = false };
    ]
    :: t.rounds;
  t.speeds <- speed :: t.speeds

let blocks_per_s = 4.0

(* Closed loop over a fixed number of blocks. *)
let loop st ~seconds ~span =
  let t = tally () in
  for _ = 1 to Measure.rounds ~per_second:blocks_per_s seconds do
    run_block t ~span (next_block st)
  done;
  t

let latency t =
  Array.concat
    (Array.to_list (Array.map Workload.Samples.to_array t.ok_s)
    @ [ Array.make (Array.fold_left ( + ) 0 t.failed) Float.infinity ])

let report t ~figures =
  {
    Workload.rounds = t.rounds;
    latency = latency t;
    correct = t.correct;
    speed = Measure.median t.speeds;
    figures;
  }

let layer_figures t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i k ->
            let name = "solver." ^ kind_name k in
            let ok = Workload.Samples.to_array t.ok_s.(i) in
            [
              (name ^ ".busy_s", Array.fold_left ( +. ) 0.0 ok);
              (name ^ ".p50_us", if ok = [||] then 0.0 else Measure.median (Array.to_list ok) *. 1e6);
              (name ^ ".failed", float_of_int t.failed.(i));
              (name ^ ".alloc_words", Workload.alloc_words name);
            ])
          kinds))

let run st ~seconds ~trace =
  if not trace then report (loop st ~seconds ~span:false) ~figures:[]
  else begin
    (* The untraced pass first, then the traced one over a fresh state of
       the same seed, so both run the same queries. *)
    let plain = loop st ~seconds ~span:false in
    let traced = Workload.traced (fun () -> loop { st with first = None; next = 0 } ~seconds ~span:true) in
    let lat = latency traced in
    let ips t = Measure.median_rate t.rounds in
    report
      { traced with correct = plain.correct && traced.correct }
      ~figures:
        (layer_figures traced
        @ [
            ("obs.overhead_share", 1.0 -. (ips traced /. ips plain));
            (* A p99 that falls on an abandoned query is censored at the
               limit; one without ten samples beyond it reads 0. *)
            ( "solver.latency_p99_ms",
              match Measure.percentile 0.99 lat with
              | Some v when Float.is_finite v -> v *. 1e3
              | Some _ -> limit *. 1e3
              | None -> 0.0 );
            ("solver.latency_samples", float_of_int (Array.length lat));
          ])
  end
