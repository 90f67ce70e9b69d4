module B = Beyond_nash
module N = B.Sync_net
module E = B.Eig
module DS = B.Dolev_strong

(* {1 Sync_net} *)

(* Flooding protocol: everyone broadcasts its id in round 1; state = set of
   ids heard. *)
let flood n =
  {
    N.init = (fun me -> [ me ]);
    send = (fun ~round ~me _ -> if round = 1 then [ (N.All, me) ] else []);
    recv = (fun ~round:_ ~me:_ heard inbox -> List.sort_uniq compare (heard @ List.map snd inbox));
    output = (fun ~me:_ heard -> if List.length heard = n then Some heard else None);
  }

let test_flood_all_hear_all () =
  let r = N.run ~n:4 ~rounds:1 (flood 4) in
  Array.iter
    (function
      | Some heard -> Alcotest.(check (list int)) "heard all" [ 0; 1; 2; 3 ] heard
      | None -> Alcotest.fail "should have heard everyone")
    r.N.outputs

let test_message_count () =
  let r = N.run ~n:4 ~rounds:1 (flood 4) in
  (* 4 broadcasts of n=4 each. *)
  Alcotest.(check int) "messages" 16 r.N.messages_sent

let test_silent_adversary () =
  let adv = N.silent [ 2 ] in
  let r = N.run ~adversary:adv ~n:4 ~rounds:1 (flood 4) in
  (* Honest processes hear everyone but 2. *)
  Alcotest.(check bool) "p0 misses 2" true (r.N.outputs.(0) = None);
  Alcotest.(check bool) "corrupt output suppressed" true (r.N.outputs.(2) = None)

let test_unicast_delivery () =
  (* Ring: each sends its id to the next; after 1 round everyone knows its
     predecessor. *)
  let ring =
    {
      N.init = (fun _ -> None);
      send = (fun ~round ~me _ -> if round = 1 then [ (N.To ((me + 1) mod 3), me) ] else []);
      recv = (fun ~round:_ ~me:_ st inbox -> match inbox with [ (_, v) ] -> Some v | _ -> st);
      output = (fun ~me:_ st -> st);
    }
  in
  let r = N.run ~n:3 ~rounds:1 ring in
  Alcotest.(check (array (option int))) "predecessors" [| Some 2; Some 0; Some 1 |] r.N.outputs

let test_out_of_range_destination () =
  let bad =
    {
      N.init = (fun _ -> ());
      send = (fun ~round:_ ~me:_ _ -> [ (N.To 9, 0) ]);
      recv = (fun ~round:_ ~me:_ st _ -> st);
      output = (fun ~me:_ _ -> None);
    }
  in
  Alcotest.check_raises "destination out of range"
    (Invalid_argument "Sync_net.run: destination out of range") (fun () ->
      ignore (N.run ~n:3 ~rounds:1 bad))

(* {1 EIG} *)

let test_eig_no_faults () =
  List.iter
    (fun (n, t) ->
      let values = Array.init n (fun i -> i mod 2) in
      let r = E.run ~n ~t ~values ~default:0 () in
      Alcotest.(check bool) (Printf.sprintf "agreement n=%d t=%d" n t) true (E.agreement r))
    [ (4, 1); (5, 1); (7, 2) ]

let test_eig_validity_unanimous () =
  let r = E.run ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |] ~default:0 () in
  Alcotest.(check bool) "validity" true (E.validity ~honest_values:[ 1; 1; 1; 1 ] r);
  Array.iter
    (function Some v -> Alcotest.(check int) "decides 1" 1 v | None -> Alcotest.fail "decided")
    r.N.outputs

let test_eig_lying_adversary_safe_above_3t () =
  (* n = 4 > 3t: the lying adversary cannot break agreement or validity. *)
  let adv = E.lying_adversary ~n:4 ~corrupted:[ 3 ] ~claim:0 in
  let r = E.run ~adversary:adv ~n:4 ~t:1 ~values:[| 1; 1; 1; 0 |] ~default:0 () in
  Alcotest.(check bool) "agreement" true (E.agreement r);
  Alcotest.(check bool) "validity" true (E.validity ~honest_values:[ 1; 1; 1 ] r)

let test_eig_breaks_at_n_eq_3t () =
  (* n = 3, t = 1: the lying adversary flips the honest players' unanimous
     value to the default — validity violated. *)
  let adv = E.lying_adversary ~n:3 ~corrupted:[ 2 ] ~claim:0 in
  let r = E.run ~adversary:adv ~n:3 ~t:1 ~values:[| 1; 1; 0 |] ~default:0 () in
  Alcotest.(check bool) "validity broken" false (E.validity ~honest_values:[ 1; 1 ] r)

let test_eig_equivocation_sweep () =
  (* Randomized adversaries never break n=7, t=2. *)
  let rng = B.Prng.create 99 in
  for trial = 1 to 10 do
    let adv = E.equivocating_adversary ~n:7 ~corrupted:[ 5; 6 ] rng in
    let values = Array.init 7 (fun i -> (i + trial) mod 2) in
    let r = E.run ~adversary:adv ~n:7 ~t:2 ~values ~default:0 () in
    Alcotest.(check bool) "agreement holds" true (E.agreement r)
  done

let test_eig_t0_is_one_round () =
  let r = E.run ~n:3 ~t:0 ~values:[| 1; 1; 1 |] ~default:0 () in
  Alcotest.(check int) "rounds" 1 r.N.rounds_run;
  Alcotest.(check bool) "agree" true (E.agreement r)

let test_eig_crash_adversary () =
  (* Crashed (silent) processes are tolerated like Byzantine ones. *)
  let r = E.run ~adversary:(N.silent [ 1 ]) ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |] ~default:0 () in
  Alcotest.(check bool) "agreement" true (E.agreement r);
  Alcotest.(check bool) "validity" true (E.validity ~honest_values:[ 1; 1; 1 ] r)

(* {1 Dolev–Strong} *)

let mk_pki seed n =
  let rng = B.Prng.create seed in
  B.Hashing.Pki.create rng ~n

let test_ds_honest_sender () =
  let pki = mk_pki 1 4 in
  let r = DS.run ~pki ~n:4 ~t:1 ~sender:0 ~value:1 ~default:0 () in
  Alcotest.(check bool) "agreement" true (DS.agreement r);
  Alcotest.(check bool) "validity" true (DS.validity_sender ~sender_value:1 r)

let test_ds_equivocating_sender_agreement () =
  let pki = mk_pki 2 4 in
  let adv = DS.equivocating_sender ~pki ~sender:0 ~n:4 in
  let r = DS.run ~adversary:adv ~pki ~n:4 ~t:1 ~sender:0 ~value:1 ~default:9 () in
  Alcotest.(check bool) "agreement despite equivocation" true (DS.agreement r)

let test_ds_beats_eig_regime () =
  (* n = 3, t = 1 is impossible without signatures but fine with them. *)
  let pki = mk_pki 3 3 in
  let adv = DS.equivocating_sender ~pki ~sender:0 ~n:3 in
  let r = DS.run ~adversary:adv ~pki ~n:3 ~t:1 ~sender:0 ~value:1 ~default:9 () in
  Alcotest.(check bool) "agreement at n = 3t" true (DS.agreement r)

let test_ds_silent_sender () =
  let pki = mk_pki 4 4 in
  let r = DS.run ~adversary:(N.silent [ 0 ]) ~pki ~n:4 ~t:1 ~sender:0 ~value:1 ~default:7 () in
  Alcotest.(check bool) "agreement on default" true (DS.agreement r);
  Array.iteri
    (fun i o -> if i <> 0 then Alcotest.(check (option int)) "default" (Some 7) o)
    r.N.outputs

let test_ds_larger_t () =
  let pki = mk_pki 5 5 in
  let r = DS.run ~pki ~n:5 ~t:3 ~sender:2 ~value:1 ~default:0 () in
  Alcotest.(check bool) "agreement with t=3" true (DS.agreement r);
  Alcotest.(check bool) "validity" true (DS.validity_sender ~sender_value:1 r)

(* {1 Async_net schedulers}

   [fifo] was covered indirectly via E15; [random] and [delayer] only ran
   inside experiments until now. Minimal flooding consensus: everyone
   floods its value once and decides the minimum after hearing all n. *)

module A = B.Async_net

let async_min_flood ~n ~values =
  {
    A.init =
      (fun me -> ([ (me, values.(me)) ], List.init n (fun j -> (j, values.(me)))));
    on_message =
      (fun ~me:_ seen ~sender v ->
        if List.mem_assoc sender seen then (seen, []) else ((sender, v) :: seen, []));
    decided =
      (fun seen ->
        if List.length seen = n then
          Some (List.fold_left (fun acc (_, v) -> min acc v) max_int seen)
        else None);
  }

let test_async_random_decides_and_is_seeded () =
  let run seed =
    A.run ~n:4 ~scheduler:(A.random (B.Prng.create seed)) (async_min_flood ~n:4 ~values:[| 3; 1; 4; 2 |])
  in
  let r = run 5 in
  Alcotest.(check (array (option int))) "everyone decides the min"
    (Array.make 4 (Some 1)) r.A.decisions;
  let r' = run 5 in
  Alcotest.(check int) "same seed, same trajectory" r.A.steps r'.A.steps;
  (* The run halts at the step where the last process decides, so messages
     still in flight at that instant stay undelivered — deterministically. *)
  Alcotest.(check int) "same seed, same leftovers" r.A.undelivered r'.A.undelivered;
  Alcotest.(check int) "nothing dropped without faults" 0 r.A.dropped

(* The message a scheduler picks from pending messages in posting order. *)
let pick sched pending = pending.(sched pending (Array.length pending))

let test_async_delayer_starves_then_fifo () =
  (* Direct scheduler-level unit test: with budget, the victim's message is
     starved; at budget exhaustion the choice degrades to fifo. *)
  let m s q = { A.sender = s; dest = 0; payload = (); seq = q } in
  let pending = [| m 0 0; m 1 1; m 1 2 |] in
  let budget = ref 1 in
  let sched = A.delayer ~victim:0 ~budget in
  Alcotest.(check int) "starves the victim while budget lasts" 1 (pick sched pending).A.seq;
  Alcotest.(check int) "budget spent" 0 !budget;
  Alcotest.(check int) "exhausted budget falls back to fifo" 0 (pick sched pending).A.seq;
  Alcotest.(check int) "budget not driven negative" 0 !budget

let test_async_delayer_victim_only_queue () =
  (* Only victim messages pending: delivered immediately, budget intact. *)
  let m q = { A.sender = 2; dest = 0; payload = (); seq = q } in
  let budget = ref 5 in
  Alcotest.(check int) "must deliver the victim's message" 3
    (pick (A.delayer ~victim:2 ~budget) [| m 3; m 4 |]).A.seq;
  Alcotest.(check int) "costs no budget" 5 !budget

let test_async_delayer_budget_linear_delay () =
  let steps budget_size =
    (A.run ~n:3
       ~scheduler:(A.delayer ~victim:0 ~budget:(ref budget_size))
       (async_min_flood ~n:3 ~values:[| 1; 2; 3 |]))
      .A.steps
  in
  let fifo_steps =
    (A.run ~n:3 ~scheduler:A.fifo (async_min_flood ~n:3 ~values:[| 1; 2; 3 |])).A.steps
  in
  Alcotest.(check int) "budget 0 = fifo" fifo_steps (steps 0);
  Alcotest.(check bool) "delay grows with the budget" true (steps 6 > steps 0);
  (* The victim has 3 outgoing messages; a budget of 6 can starve each
     delivery but never past the point where only victim messages remain. *)
  Alcotest.(check (option int)) "consensus still reached"
    (Some 1)
    (A.run ~n:3
       ~scheduler:(A.delayer ~victim:0 ~budget:(ref 6))
       (async_min_flood ~n:3 ~values:[| 1; 2; 3 |]))
      .A.decisions.(1)

(* A process whose decision comes and goes (decided after an odd number of
   deliveries) and that answers every message until it has seen [limit]:
   the run stops at the first step where all are decided at once, exactly
   as the list-queue oracle does. *)
let test_async_flip_flop_matches_oracle () =
  let limit = 5 in
  let flip =
    {
      A.init = (fun me -> (0, [ ((me + 1) mod 3, ()) ]));
      on_message =
        (fun ~me seen ~sender:_ () ->
          let seen = seen + 1 in
          (seen, if seen < limit then [ ((me + 1) mod 3, ()); ((me + 2) mod 3, ()) ] else []));
      decided = (fun seen -> if seen land 1 = 1 then Some seen else None);
    }
  in
  List.iter
    (fun seed ->
      let r = A.run ~n:3 ~scheduler:(A.random (B.Prng.create seed)) flip in
      let o = Oracles.Async_list.(run ~n:3 ~scheduler:(random (B.Prng.create seed)) flip) in
      Alcotest.(check (array (option int))) "decisions" o.A.decisions r.A.decisions;
      Alcotest.(check int) "steps" o.A.steps r.A.steps;
      Alcotest.(check int) "undelivered" o.A.undelivered r.A.undelivered)
    (List.init 20 Fun.id)

let test_async_empty_queue_terminates () =
  (* No initial messages and nobody ever decides: the run must stop at
     once rather than spin against max_steps. *)
  let mute =
    {
      A.init = (fun _ -> ((), []));
      on_message = (fun ~me:_ () ~sender:_ _ -> ((), []));
      decided = (fun () -> None);
    }
  in
  let r = A.run ~n:3 ~scheduler:A.fifo mute in
  Alcotest.(check int) "zero steps" 0 r.A.steps;
  Alcotest.(check int) "nothing pending" 0 r.A.undelivered

let test_async_fault_filter_drop_stalls () =
  let r =
    A.run ~n:3 ~scheduler:A.fifo
      ~faults:(fun ~step:_ _ -> A.Drop)
      (async_min_flood ~n:3 ~values:[| 1; 2; 3 |])
  in
  Alcotest.(check int) "every delivery dropped" 9 r.A.dropped;
  Alcotest.(check bool) "nobody decided" true
    (Array.for_all (( = ) None) r.A.decisions)

let test_async_fault_filter_duplicate_harmless () =
  let rng = B.Prng.create 3 in
  let r =
    A.run ~n:3 ~scheduler:A.fifo
      ~faults:(B.Faults.async_filter rng ~drop:0.0 ~dup:0.4)
      (async_min_flood ~n:3 ~values:[| 1; 2; 3 |])
  in
  Alcotest.(check (array (option int))) "duplication is idempotent here"
    (Array.make 3 (Some 1)) r.A.decisions;
  Alcotest.(check int) "nothing dropped" 0 r.A.dropped

let eig_agreement_property =
  QCheck.Test.make ~count:25 ~name:"eig: agreement for random values, n=4, t=1, lying adversary"
    QCheck.(pair (int_range 0 15) bool)
    (fun (bits, claim) ->
      let values = Array.init 4 (fun i -> (bits lsr i) land 1) in
      let adv = E.lying_adversary ~n:4 ~corrupted:[ 3 ] ~claim:(if claim then 1 else 0) in
      let r = E.run ~adversary:adv ~n:4 ~t:1 ~values ~default:0 () in
      E.agreement r && E.validity ~honest_values:[ values.(0); values.(1); values.(2) ] r)

let suite =
  [
    Alcotest.test_case "sync: flood" `Quick test_flood_all_hear_all;
    Alcotest.test_case "sync: message count" `Quick test_message_count;
    Alcotest.test_case "sync: silent adversary" `Quick test_silent_adversary;
    Alcotest.test_case "sync: unicast" `Quick test_unicast_delivery;
    Alcotest.test_case "sync: bad destination" `Quick test_out_of_range_destination;
    Alcotest.test_case "eig: no faults" `Quick test_eig_no_faults;
    Alcotest.test_case "eig: unanimous validity" `Quick test_eig_validity_unanimous;
    Alcotest.test_case "eig: safe above 3t" `Quick test_eig_lying_adversary_safe_above_3t;
    Alcotest.test_case "eig: breaks at n = 3t" `Quick test_eig_breaks_at_n_eq_3t;
    Alcotest.test_case "eig: equivocation sweep" `Slow test_eig_equivocation_sweep;
    Alcotest.test_case "eig: t=0" `Quick test_eig_t0_is_one_round;
    Alcotest.test_case "eig: crash adversary" `Quick test_eig_crash_adversary;
    Alcotest.test_case "ds: honest sender" `Quick test_ds_honest_sender;
    Alcotest.test_case "ds: equivocating sender" `Quick test_ds_equivocating_sender_agreement;
    Alcotest.test_case "ds: n = 3t with PKI" `Quick test_ds_beats_eig_regime;
    Alcotest.test_case "ds: silent sender" `Quick test_ds_silent_sender;
    Alcotest.test_case "ds: t = 3" `Quick test_ds_larger_t;
    Alcotest.test_case "async: random scheduler seeded" `Quick
      test_async_random_decides_and_is_seeded;
    Alcotest.test_case "async: delayer starves then fifo" `Quick
      test_async_delayer_starves_then_fifo;
    Alcotest.test_case "async: delayer victim-only queue" `Quick
      test_async_delayer_victim_only_queue;
    Alcotest.test_case "async: delayer budget = linear delay" `Quick
      test_async_delayer_budget_linear_delay;
    Alcotest.test_case "async: flip-flop decisions = list oracle" `Quick
      test_async_flip_flop_matches_oracle;
    Alcotest.test_case "async: empty queue terminates" `Quick test_async_empty_queue_terminates;
    Alcotest.test_case "async: drop filter stalls consensus" `Quick
      test_async_fault_filter_drop_stalls;
    Alcotest.test_case "async: duplicate filter harmless" `Quick
      test_async_fault_filter_duplicate_harmless;
    QCheck_alcotest.to_alcotest eig_agreement_property;
  ]
