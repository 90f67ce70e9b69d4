module B = Beyond_nash
module A = B.Async_cheap_talk
module F = B.Feasibility
module Flt = B.Faults
module E = B.Extensive
module Seq = B.Sequential

(* The sweep's cell generator (same shape as Mediator_sweep): sub-Byzantine
   schedules from at most f = k+t culprits. *)
let byz ~n ~f rng =
  Flt.random_schedule rng
    (Flt.byzantine ~n ~rounds:2 ~max_events:((2 * f) + 2) ~max_culprits:f)

let explore ?pool ~seed ~trials ~n ~k ~t () =
  A.explore ?pool ~seed ~trials ~gen:(byz ~n ~f:(k + t)) ~n ~k ~t ~general_type:1 ()

let decisions_list r = Array.to_list r.B.Async_net.decisions

(* {1 Protocol basics} *)

let test_fault_free_decides () =
  (* Fault-free FIFO delivery decodes whenever n > 3(k+t) — all n shares
     arrive, meeting the Berlekamp-Welch bound — in both the implementable
     and the breaks-under-faults regimes. *)
  List.iter
    (fun (n, k, t) ->
      let r = A.run ~n ~k ~t ~general_type:1 () in
      Alcotest.(check (list (option int)))
        (Printf.sprintf "n=%d k=%d t=%d all decode the recommendation" n k t)
        (List.init n (fun _ -> Some 1))
        (decisions_list r);
      Alcotest.(check int) "nothing dropped" 0 r.B.Async_net.dropped)
    [ (5, 1, 0); (4, 1, 0); (9, 1, 1); (8, 1, 1) ]

let test_fault_free_stalls_below_3f () =
  (* n <= 3(k+t): even all n shares are fewer than the 3f+1 the robust
     decoder needs, so every party stalls with no faults at all. *)
  List.iter
    (fun (n, k, t) ->
      let r = A.run ~n ~k ~t ~general_type:1 () in
      Alcotest.(check (list (option int)))
        (Printf.sprintf "n=%d k=%d t=%d stalls fault-free" n k t)
        (List.init n (fun _ -> None))
        (decisions_list r))
    [ (3, 1, 0); (6, 1, 1) ]

let test_process_validation () =
  Alcotest.check_raises "k+t >= n rejected"
    (Invalid_argument "Async_cheap_talk.process: need n >= 2 and k + t < n (sharing degree bound)")
    (fun () -> ignore (A.process ~n:3 ~k:2 ~t:1 ~general_type:0))

let decode_iff_classify_async =
  QCheck.Test.make ~count:200
    ~name:"async mediator: decode_guaranteed iff classify_async implementable"
    QCheck.(triple (int_range 1 24) (int_range 1 3) (int_range 0 3))
    (fun (n, k, t) ->
      let f = A.fault_bound ~k ~t in
      A.decode_guaranteed ~n ~f = (F.classify_async ~n ~k ~t = F.Async_implementable))

let test_stall_witness_size () =
  (* The minimal silencing witness: n - 3(k+t) parties, clamped at 0 in the
     fault-free-impossible regime. *)
  List.iter
    (fun ((n, k, t), expected) ->
      Alcotest.(check int)
        (Printf.sprintf "witness size at n=%d k=%d t=%d" n k t)
        expected
        (A.stall_witness_size ~n ~k ~t))
    [ ((4, 1, 0), 1); ((3, 1, 0), 0); ((8, 1, 1), 2); ((7, 1, 1), 1); ((6, 1, 1), 0) ]

let test_sanitize_drops_dealer_events () =
  let s =
    [
      Flt.Crash { proc = 0; round = 1 };
      Flt.Drop { round = 1; src = 0; dst = 2 };
      Flt.Drop { round = 1; src = 2; dst = 0 };
      Flt.Delay { round = 1; src = 1; dst = 3; by = 2 };
    ]
  in
  (* Only events *blaming* the dealer go: its crash and tampering with its
     sends. A drop toward the dealer blames the sender and stays. *)
  Alcotest.(check int) "dealer-blaming events removed" 2 (List.length (A.sanitize s));
  Alcotest.(check bool) "dealer not a culprit afterwards" false
    (List.mem 0 (Flt.culprits (A.sanitize s)))

(* {1 Scheduler fairness (satellite 3)} *)

let test_async_scheduler_eventual_delivery () =
  (* Delay and Partition events only starve; once nothing else is pending
     the starved messages flow, so a no-loss schedule cannot prevent
     decoding in the implementable regime. *)
  let schedules =
    [
      [ Flt.Delay { round = 1; src = 1; dst = 2; by = 3 } ];
      [ Flt.Partition { from_round = 1; heal_round = 2; groups = [ [ 0; 1; 2 ]; [ 3; 4 ] ] } ];
      [
        Flt.Delay { round = 1; src = 2; dst = 0; by = 1 };
        Flt.Delay { round = 2; src = 3; dst = 4; by = 2 };
        Flt.Partition { from_round = 1; heal_round = 3; groups = [ [ 0; 2; 4 ]; [ 1; 3 ] ] };
      ];
    ]
  in
  List.iter
    (fun sched ->
      let r = A.run ~scheduler:(Flt.async_scheduler sched) ~n:5 ~k:1 ~t:0 ~general_type:1 () in
      Alcotest.(check (list (option int)))
        "starvation alone cannot stall n > 4(k+t)"
        (List.init 5 (fun _ -> Some 1))
        (decisions_list r);
      Alcotest.(check int) "nothing lost, only reordered" 0 r.B.Async_net.dropped)
    schedules

let fairness_property =
  QCheck.Test.make ~count:50
    ~name:"async mediator: random delay/partition schedules still decode (n=5,k=1,t=0)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let gen =
        { (Flt.omission ~n:5 ~rounds:2 ~max_events:4 ~max_culprits:4) with
          Flt.kinds = [ Flt.KDelay; Flt.KPartition ]
        }
      in
      let sched = Flt.random_schedule (B.Prng.create seed) gen in
      let r = A.run ~scheduler:(Flt.async_scheduler sched) ~n:5 ~k:1 ~t:0 ~general_type:1 () in
      decisions_list r = List.init 5 (fun _ -> Some 1) && r.B.Async_net.dropped = 0)

let test_async_plan_composes_with_scheduler () =
  (* Drop/Duplicate/Corrupt filters riding on top of the adversarial
     scheduler: one faulty link of each kind is within the f = 1 budget, so
     n = 5 still decodes — and the once-per-link duplicate memo means the
     run terminates instead of ping-ponging copies forever. *)
  let sched =
    [
      Flt.Drop { round = 1; src = 2; dst = 3 };
      Flt.Duplicate { round = 1; src = 2; dst = 4 };
      Flt.Corrupt { round = 2; src = 2; dst = 1 };
      Flt.Delay { round = 1; src = 4; dst = 1; by = 2 };
    ]
  in
  let r = A.run_schedule ~n:5 ~k:1 ~t:0 ~general_type:1 sched in
  Alcotest.(check (list (option int)))
    "one faulty sender is absorbed"
    (List.init 5 (fun _ -> Some 1))
    (decisions_list r);
  Alcotest.(check bool) "the drop was applied" true (r.B.Async_net.dropped > 0);
  (* 5 shares + 25 relays + one duplicate: far below max_steps, so the
     once-per-link memo did stop the duplicate from ping-ponging. *)
  Alcotest.(check bool) "the duplicate did not loop" true (r.B.Async_net.steps < 100)

let test_empty_schedule_is_fault_free () =
  let a = A.run_schedule ~n:5 ~k:1 ~t:0 ~general_type:1 [] in
  let b = A.run ~n:5 ~k:1 ~t:0 ~general_type:1 () in
  Alcotest.(check (list (option int)))
    "run_schedule [] = fault-free run" (decisions_list b) (decisions_list a);
  Alcotest.(check int) "same steps" b.B.Async_net.steps a.B.Async_net.steps

(* {1 Explore determinism (satellite 3)} *)

let test_explore_deterministic_across_jobs () =
  let serial = explore ~seed:16 ~trials:30 ~n:4 ~k:1 ~t:0 () in
  let pool = B.Pool.create ~domains:4 () in
  let parallel = explore ~pool ~seed:16 ~trials:30 ~n:4 ~k:1 ~t:0 () in
  let rerun = explore ~seed:16 ~trials:30 ~n:4 ~k:1 ~t:0 () in
  Alcotest.(check bool) "report identical at -j1 and -j4" true (serial = parallel);
  Alcotest.(check bool) "report identical across reruns" true (serial = rerun);
  Alcotest.(check string) "transcript byte-identical"
    (B.Explore.transcript ~name:"cell" serial)
    (B.Explore.transcript ~name:"cell" parallel)

let explore_determinism_property =
  QCheck.Test.make ~count:10
    ~name:"async mediator: explore reports bit-identical for any -j and seed"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let serial = explore ~seed ~trials:10 ~n:4 ~k:1 ~t:0 () in
      let pool = B.Pool.create ~domains:4 () in
      let parallel = explore ~pool ~seed ~trials:10 ~n:4 ~k:1 ~t:0 () in
      serial = parallel)

(* {1 Regime boundaries: golden transcripts (tentpole)} *)

(* Pinned Explore transcripts for every impossibility cell of the E16 grid,
   at the E16 seed. Breaks-under-faults cells shrink to the predicted
   silencing witness; breaks-fault-free cells shrink to the empty
   schedule. These are replayable: `--explore 50 --seed 16`. *)

let golden ~name ~n ~k ~t expected () =
  let report = explore ~seed:16 ~trials:50 ~n ~k ~t () in
  Alcotest.(check string) "pinned transcript" expected
    (B.Explore.transcript ~name report)

let test_golden_n4_breaks_under_faults =
  golden ~name:"n=4 k=1 t=0" ~n:4 ~k:1 ~t:0
    "explore n=4 k=1 t=0: seed=16 trials=50 violations=21\n\
    \  first violation: trial=0 failed=[totality]\n\
    \  schedule: [crash p1@r2]\n\
    \  shrunk (1 event): [crash p1@r2]  failed=[totality]\n\
    \  replay: --explore 50 --seed 16  (trial 0)\n"

let test_golden_n3_breaks_fault_free =
  golden ~name:"n=3 k=1 t=0" ~n:3 ~k:1 ~t:0
    "explore n=3 k=1 t=0: seed=16 trials=50 violations=50\n\
    \  first violation: trial=0 failed=[totality]\n\
    \  schedule: [delay r1 2->1 +2; delay r2 2->2 +1; corrupt r2 2->0]\n\
    \  shrunk (0 events): []  failed=[totality]\n\
    \  replay: --explore 50 --seed 16  (trial 0)\n"

let test_golden_n8_breaks_under_faults =
  golden ~name:"n=8 k=1 t=1" ~n:8 ~k:1 ~t:1
    "explore n=8 k=1 t=1: seed=16 trials=50 violations=5\n\
    \  first violation: trial=5 failed=[totality]\n\
    \  schedule: [drop r2 1->3; drop r1 3->2; drop r1 1->7; crash p3@r2]\n\
    \  shrunk (2 events): [drop r1 1->7; crash p3@r2]  failed=[totality]\n\
    \  replay: --explore 50 --seed 16  (trial 5)\n"

let test_golden_n6_breaks_fault_free =
  golden ~name:"n=6 k=1 t=1" ~n:6 ~k:1 ~t:1
    "explore n=6 k=1 t=1: seed=16 trials=50 violations=50\n\
    \  first violation: trial=0 failed=[totality]\n\
    \  schedule: [dup r1 1->3; crash p1@r1; corrupt r2 1->2]\n\
    \  shrunk (0 events): []  failed=[totality]\n\
    \  replay: --explore 50 --seed 16  (trial 0)\n"

(* {1 Regime boundaries: possibility and local minimality} *)

let test_possibility_cells_robust () =
  (* The acceptance bar for the possibility side: >= 100 seeded schedules,
     zero violations, at -j1 and -j4. *)
  let pool = B.Pool.create ~domains:4 () in
  List.iter
    (fun (n, k, t) ->
      let serial = explore ~seed:16 ~trials:100 ~n ~k ~t () in
      let parallel = explore ~pool ~seed:16 ~trials:100 ~n ~k ~t () in
      Alcotest.(check int)
        (Printf.sprintf "n=%d k=%d t=%d robust across 100 schedules (-j1)" n k t)
        0
        (List.length serial.B.Explore.violations);
      Alcotest.(check bool) "and bit-identical at -j4" true (serial = parallel))
    [ (5, 1, 0); (9, 1, 1) ]

let test_shrunk_witnesses_locally_minimal () =
  (* Every shrunk counterexample still fails, matches the predicted witness
     size at its minimum, and is 1-minimal: removing any single event
     repairs the run. *)
  List.iter
    (fun (n, k, t) ->
      let report = explore ~seed:16 ~trials:50 ~n ~k ~t () in
      let sys = A.system ~n ~k ~t ~general_type:1 in
      Alcotest.(check bool) "found violations" true (report.B.Explore.violations <> []);
      Alcotest.(check int)
        (Printf.sprintf "n=%d k=%d t=%d minimal witness has the predicted size" n k t)
        (A.stall_witness_size ~n ~k ~t)
        (B.Explore.min_shrunk_size report);
      List.iter
        (fun v ->
          Alcotest.(check bool) "shrunk still fails" true (v.B.Explore.shrunk_failed <> []);
          List.iteri
            (fun i _ ->
              let without = List.filteri (fun j _ -> j <> i) v.B.Explore.shrunk in
              Alcotest.(check (list string))
                (Printf.sprintf "dropping event %d of trial %d repairs the run" i
                   v.B.Explore.trial)
                [] (B.Explore.failures sys without))
            v.B.Explore.shrunk)
        report.B.Explore.violations)
    [ (4, 1, 0); (3, 1, 0); (8, 1, 1); (6, 1, 1) ]

(* {1 Sequential equilibrium (both sides of two thresholds)} *)

let test_punishment_credible_above_2k2t () =
  (* n > 2k+2t: the majority makes punishing personally worthwhile, so
     (obey, punish) survives the sequential check. *)
  List.iter
    (fun (n, k, t) ->
      let game, profile = Seq.punishment_game ~n ~k ~t in
      Alcotest.(check bool) "Nash" true (E.is_nash game profile);
      Alcotest.(check bool)
        (Printf.sprintf "sequential at n=%d k=%d t=%d" n k t)
        true
        (Seq.is_sequentially_k_resilient game profile ~k))
    [ (5, 1, 1); (7, 2, 1) ]

let test_punishment_non_credible_below_2k2t () =
  (* n <= 2k+2t: still Nash — the punishment node is off-path — but the
     threat is not credible, and the sequential check pins the deviation at
     the punisher's information set. *)
  List.iter
    (fun (n, k, t) ->
      let game, profile = Seq.punishment_game ~n ~k ~t in
      Alcotest.(check bool) "still Nash (threat is off-path)" true (E.is_nash game profile);
      match Seq.check game profile ~k with
      | None -> Alcotest.failf "expected a witness at n=%d k=%d t=%d" n k t
      | Some w ->
        Alcotest.(check string) "deviation at the punisher's info set" "react" w.Seq.info;
        Alcotest.(check (list int)) "the punisher deviates alone" [ 1 ] w.Seq.coalition;
        List.iter
          (fun (_, g) -> Alcotest.(check bool) "strict gain" true (g > 0.0))
          w.Seq.gains)
    [ (4, 1, 1); (6, 2, 1) ]

let test_stall_game_tracks_async_threshold () =
  (* The stall game flips exactly with classify_async: above n = 4(k+t)
     withholding is wasteful; at or below, the coalition proxy gains by
     stalling and (relay, abort) is not sequentially rational. *)
  List.iter
    (fun (n, k, t) ->
      let game, profile = Seq.async_stall_game ~n ~k ~t in
      let expected = F.classify_async ~n ~k ~t = F.Async_implementable in
      Alcotest.(check bool)
        (Printf.sprintf "sequential iff implementable at n=%d k=%d t=%d" n k t)
        expected
        (Seq.is_sequentially_k_resilient game profile ~k);
      if not expected then
        match Seq.check game profile ~k with
        | Some w -> Alcotest.(check string) "witness at the relay choice" "relay?" w.Seq.info
        | None -> Alcotest.fail "witness expected")
    [ (5, 1, 0); (4, 1, 0); (9, 1, 1); (8, 1, 1) ]

let test_sequential_check_validation () =
  let game, profile = Seq.punishment_game ~n:5 ~k:1 ~t:1 in
  Alcotest.check_raises "k = 0 rejected" (Invalid_argument "Sequential.check: need k >= 1")
    (fun () -> ignore (Seq.check game profile ~k:0))

let test_sweep_sequential_rows_all_match () =
  (* The E16 cross-check table: on every grid cell both canned games agree
     with their classification. *)
  List.iter
    (fun c ->
      let _, stall_ok, _, punish_ok = Bn_experiments.Mediator_sweep.sequential_rows c in
      Alcotest.(check bool)
        (Bn_experiments.Mediator_sweep.cell_name c ^ ": stall game matches classify_async")
        true stall_ok;
      Alcotest.(check bool)
        (Bn_experiments.Mediator_sweep.cell_name c ^ ": punishment game matches 2k+2t")
        true punish_ok)
    Bn_experiments.Mediator_sweep.cells

(* {1 Array queue = list queue}

   Async_net keeps in-flight messages in an array and its schedulers return
   an index; Oracles.Async_list is the list queue it replaced, with the
   schedule readings that scanned the event list per message. Same
   process, same schedule, same seeds: the result records must be equal,
   under every scheduler, with the schedule's fault plan applied. *)

module Ms = Bn_experiments.Mediator_sweep
module N = B.Async_net
module O = Oracles.Async_list

let corrupt ~src ~dst:_ = function
  | A.Share s -> A.Share { s with B.Shamir.y = B.Field.add s.B.Shamir.y (1 + src) }
  | A.Relay s -> A.Relay { s with B.Shamir.y = B.Field.add s.B.Shamir.y (1 + src) }

let queue_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"async_net: array queue = list queue under every scheduler"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let rng = B.Prng.create seed in
      let c = List.nth Ms.cells (B.Prng.int rng (List.length Ms.cells)) in
      let n = c.Ms.n and f = c.Ms.k + c.Ms.t in
      (* The cell's own byzantine generator, or the same with partitions. *)
      let schedule =
        if B.Prng.bool rng then c.Ms.gen rng
        else
          Flt.random_schedule rng
            {
              (Flt.byzantine ~n ~rounds:2 ~max_events:((2 * f) + 2) ~max_culprits:f) with
              Flt.kinds = [ Flt.KDrop; KDuplicate; KDelay; KCrash; KPartition; KCorrupt ];
            }
      in
      (* Random cuts put every process in exactly one group; leave some
         out and list one twice, so isolated processes and overlapping
         groups occur too. *)
      let schedule =
        List.map
          (function
            | Flt.Partition p when B.Prng.bool rng ->
              let out = B.Prng.int rng (1 lsl n) and twice = B.Prng.int rng n in
              let kept v = (out lsr v) land 1 = 0 in
              let groups = List.map (List.filter kept) p.groups in
              Flt.Partition { p with groups = List.rev_map (fun g -> g @ [ twice ]) groups }
            | ev -> ev)
          schedule
      in
      let process = A.process ~n ~k:c.Ms.k ~t:c.Ms.t ~general_type:1 in
      let victim = B.Prng.int rng n and budget = B.Prng.int rng 20 in
      let rseed = B.Prng.int rng 1000 in
      let agree (mk_new, mk_old) =
        N.run ~n ~scheduler:(mk_new ()) ~faults:(Flt.async_plan ~corrupt schedule) process
        = O.run ~n ~scheduler:(mk_old ()) ~faults:(O.async_plan ~corrupt schedule) process
      in
      List.for_all agree
        [
          ((fun () -> N.fifo), fun () -> O.fifo);
          ((fun () -> N.random (B.Prng.create rseed)), fun () -> O.random (B.Prng.create rseed));
          ( (fun () -> N.delayer ~victim ~budget:(ref budget)),
            fun () -> O.delayer ~victim ~budget:(ref budget) );
          ((fun () -> Flt.async_scheduler schedule), fun () -> O.async_scheduler schedule);
        ])

let suite =
  [
    Alcotest.test_case "fault-free decides above 3(k+t)" `Quick test_fault_free_decides;
    Alcotest.test_case "fault-free stalls at/below 3(k+t)" `Quick test_fault_free_stalls_below_3f;
    Alcotest.test_case "process validation" `Quick test_process_validation;
    QCheck_alcotest.to_alcotest decode_iff_classify_async;
    Alcotest.test_case "stall witness size" `Quick test_stall_witness_size;
    Alcotest.test_case "sanitize drops dealer events" `Quick test_sanitize_drops_dealer_events;
    Alcotest.test_case "scheduler fairness: eventual delivery" `Quick
      test_async_scheduler_eventual_delivery;
    QCheck_alcotest.to_alcotest fairness_property;
    Alcotest.test_case "fault plan composes with adversarial scheduler" `Quick
      test_async_plan_composes_with_scheduler;
    Alcotest.test_case "empty schedule = fault-free" `Quick test_empty_schedule_is_fault_free;
    Alcotest.test_case "explore deterministic across -j" `Quick
      test_explore_deterministic_across_jobs;
    QCheck_alcotest.to_alcotest explore_determinism_property;
    Alcotest.test_case "golden: n=4 breaks under faults" `Quick test_golden_n4_breaks_under_faults;
    Alcotest.test_case "golden: n=3 breaks fault-free" `Quick test_golden_n3_breaks_fault_free;
    Alcotest.test_case "golden: n=8 breaks under faults" `Quick test_golden_n8_breaks_under_faults;
    Alcotest.test_case "golden: n=6 breaks fault-free" `Quick test_golden_n6_breaks_fault_free;
    Alcotest.test_case "possibility cells robust (100 schedules, -j1/-j4)" `Slow
      test_possibility_cells_robust;
    Alcotest.test_case "shrunk witnesses locally minimal" `Slow
      test_shrunk_witnesses_locally_minimal;
    Alcotest.test_case "punishment credible above 2k+2t" `Quick
      test_punishment_credible_above_2k2t;
    Alcotest.test_case "punishment non-credible below 2k+2t" `Quick
      test_punishment_non_credible_below_2k2t;
    Alcotest.test_case "stall game tracks the async threshold" `Quick
      test_stall_game_tracks_async_threshold;
    Alcotest.test_case "sequential check validation" `Quick test_sequential_check_validation;
    Alcotest.test_case "sweep: sequential rows all match" `Quick
      test_sweep_sequential_rows_all_match;
    QCheck_alcotest.to_alcotest queue_matches_oracle;
  ]
