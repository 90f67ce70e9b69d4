(* paper-suite: Experiments.render on E1-E17 in registry order at -j 1 —
   what `bin/main.exe --all` does for a reader reproducing the paper. The
   experiments carry their own seeds, so the benchmark seed is unused. *)

module B = Beyond_nash
module E = Bn_experiments.Experiments

(* MD5 of each experiment's transcript at the commit that defined this
   benchmark. A change that alters a transcript on purpose re-pins it here
   (a mismatch prints the new digest on stderr). *)
let pinned =
  [
    ("E1", "7944dac0f1b84293cec635df9548fdfc");
    ("E2", "90959ed5dcccf200b19ef60e1f435c80");
    ("E3", "68ef95c84703caed1e284d3d29f3b5ce");
    ("E4", "63bf11fe28d2138f5976b079a85887eb");
    ("E5", "351bdf0de10033bad471d22fc1244e3b");
    ("E6", "c1df08a1e201cccc97d5cda9f8bdfb68");
    ("E7", "bf90b418297a3552def423948ded36fb");
    ("E8", "a65f021e264ac9e943f5f7084cff3a7f");
    ("E9", "def433efa88cff113f9044f006a75fdd");
    ("E10", "d3c082fd29a429c554ab7e35b0b12f76");
    ("E11", "bf68bf07cb76d8391544ba828c3ae028");
    ("E12", "ef0cf5b06e8ee6eba73ca6a6914a37fe");
    ("E13", "5ce5d0a0d1938353fc4287358ae868e9");
    ("E14", "3b06b65e62fda3088cba0833926462a2");
    ("E15", "bad36254d26135e28b5cf1764947cc76");
    ("E16", "566e14dae0745ac5fb246ee0b34e2b50");
    ("E17", "2f7a970461497028c56a1da22aef0865");
  ]

(* An experiment's outcome, timed on the CPU clock, with the host's speed
   sampled inside it if it ran long enough: E6, E10 and E17 run for seconds each, and the host
   can change speed several times inside one of them. *)
let render name =
  let text, dt, speed = Clock.sampled (fun () -> Option.get (E.render ~jobs:1 name)) in
  let digest = Digest.to_hex (Digest.string text) in
  let want = List.assoc name pinned in
  if digest <> want then
    Printf.eprintf "paper-suite: %s transcript digest %s, pinned %s\n%!" name digest want;
  ({ Measure.items = 1; seconds = dt; ok = digest = want }, speed)

let experiments = List.map (fun (name, _, _) -> name) E.all

(* One pass over [experiments]; [each i e] renders the [i]th experiment [e]
   and returns its renders. Each render's time is scaled by the speed
   sampled inside it. A render too short for a sample (under 20 ms) takes
   the median of the readings at the four nearest boundaries instead: the
   host's speed is read three times before each experiment and after the
   last, and the two boundaries around the experiment and the next one out
   on each side are used, so that a burst at one boundary moves nothing.
   Returns each experiment's outcomes and the speed of its first. *)
let pass each =
  let readings () = List.init 3 (fun _ -> Clock.reading Clock.Thread_cpu) in
  let first = readings () in
  let runs = List.mapi (fun i e -> let rs = each i e in (rs, readings ())) experiments in
  let bounds = Array.of_list (first :: List.map snd runs) in
  let last = Array.length bounds - 1 in
  List.mapi
    (fun i (rs, _) ->
      let near = List.sort_uniq compare (List.init 4 (fun k -> max 0 (min last (i - 1 + k)))) in
      let around = Clock.speed (List.concat_map (fun b -> bounds.(b)) near) in
      let scaled =
        List.map
          (fun (o, sampled) ->
            let speed = Option.value sampled ~default:around in
            (Measure.scale speed o, speed))
          rs
      in
      (List.map fst scaled, snd (List.hd scaled)))
    runs

(* A pass takes ~45 s on the reference machine, longer than any run length
   the benchmark uses, so a run is one pass. A pass is a round, and its
   time — what a reader waits for the transcript — is the latency: the 17
   experiments differ too much in size for a median over them to mean
   anything. *)
let passes ~seconds =
  List.init (Measure.rounds ~per_second:(1.0 /. 45.0) seconds) (fun _ ->
      pass (fun _ e -> [ render e ]))

let report passes ~correct ~figures =
  let outcomes = List.map (List.map (fun (os, _) -> List.hd os)) passes in
  {
    Workload.rounds = outcomes;
    latency = Array.of_list (List.map (fun p -> Measure.latency (Measure.total p)) outcomes);
    correct = correct && List.for_all (List.for_all (fun o -> o.Measure.ok)) outcomes;
    speed = Measure.median (List.concat_map (List.map snd) passes);
    figures;
  }

(* The untraced side of obs.overhead_share leaves out E6 and E10, the two
   experiments that open no spans of their own (~30 s a pass), so a traced
   run fits well within the per-run time limit on a slow host. Each other
   experiment also renders once untraced, next to its traced render and
   alternately before and after it, so both sides see the same host and
   neither always gets the warmer caches. *)
let overhead_set = List.filter (fun e -> e <> "E6" && e <> "E10") experiments

let traced_pass () =
  let plain e =
    B.Obs.set_tracing false;
    let o = render e in
    B.Obs.set_tracing true;
    o
  in
  (* Each experiment of [overhead_set] gives its traced render, then its
     untraced one. *)
  let pass =
    pass (fun i e ->
        if not (List.mem e overhead_set) then [ render e ]
        else if i mod 2 = 0 then
          let u = plain e in
          [ render e; u ]
        else
          let o = render e in
          [ o; plain e ])
  in
  let pairs = List.filter_map (function [ o; u ], _ -> Some (o, u) | _ -> None) pass in
  let traced, untraced = List.split pairs in
  (pass, 1.0 -. (Measure.items_per_s traced /. Measure.items_per_s untraced), untraced)

let run ~seconds ~trace =
  if not trace then report (passes ~seconds) ~correct:true ~figures:[]
  else begin
    let pass, overhead, untraced = Workload.traced traced_pass in
    let span name = "exp." ^ name in
    report
      [ pass ]
      ~correct:(List.for_all (fun o -> o.Measure.ok) untraced)
      ~figures:
        (List.map (fun e -> (span e ^ ".busy_s", Workload.busy_s (span e))) experiments
        @ List.map
            (fun e -> (span e ^ ".alloc_words", Workload.alloc_words (span e)))
            [ "E6"; "E10"; "E13"; "E17" ]
        (* E17's Scrip_soa sweeps: the serial flush is the step's own
           time, the draw its pool.chunk children. *)
        @ [
            ("soa.scrip.flush_excl_s", Workload.excl_s "scrip_soa.step");
            ("soa.scrip.draw_excl_s", Workload.excl_s ~parent:"scrip_soa.step" "pool.chunk");
            ("soa.scrip.step_alloc_words", Workload.alloc_words "scrip_soa.step");
            ("obs.overhead_share", overhead);
          ])
  end
