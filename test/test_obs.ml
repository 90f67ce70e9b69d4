(* Observability layer (Bn_obs): the determinism contract — Det counters
   are identical for any domain budget and across same-seed reruns — plus
   the sharded counter engine, span well-nesting, and exporter validity.
   Everything here drives real workloads (experiments, the fault-schedule
   explorer) rather than synthetic counter churn, so the suite also pins
   the instrumentation points against accidental moves onto
   schedule-dependent paths. *)

[@@@lint.allow "P002"
  "the suite spawns a raw domain on purpose: it asserts the DLS counter shards sum correctly \
   for domains Pool did not create"]

module B = Beyond_nash
module FS = Bn_experiments.Fault_sweep

let det_snapshot () = B.Obs.counters_snapshot ~kind:B.Obs.Det ()

let snapshot_t = Alcotest.(list (pair string int))

(* {1 Counter engine} *)

let test_registry () =
  let c = B.Obs.counter ~kind:B.Obs.Volatile "test.obs.registry" in
  let c' = B.Obs.counter ~kind:B.Obs.Volatile "test.obs.registry" in
  let before = B.Obs.value c in
  B.Obs.add c 5;
  B.Obs.incr c';
  Alcotest.(check int) "find-or-create by name shares the cell" (before + 6) (B.Obs.value c);
  B.Obs.add c 0;
  Alcotest.(check int) "add 0 is a no-op" (before + 6) (B.Obs.value c)

let test_add2 () =
  let a = B.Obs.counter ~kind:B.Obs.Volatile "test.obs.add2_a" in
  let b = B.Obs.counter ~kind:B.Obs.Volatile "test.obs.add2_b" in
  let va = B.Obs.value a and vb = B.Obs.value b in
  B.Obs.add2 a 3 b 4;
  (* From a fresh domain too, so the flush exercises the grow path of a
     shard that has never seen these counter ids. *)
  Domain.join (Domain.spawn (fun () -> B.Obs.add2 a 10 b 20));
  Alcotest.(check int) "add2 first cell" (va + 13) (B.Obs.value a);
  Alcotest.(check int) "add2 second cell" (vb + 24) (B.Obs.value b)

let prop_parallel_sum =
  QCheck.Test.make ~name:"sharded counter sums exactly under Pool" ~count:30
    QCheck.(list_of_size Gen.(1 -- 50) small_nat)
    (fun xs ->
      let c = B.Obs.counter ~kind:B.Obs.Volatile "test.obs.parallel_sum" in
      let before = B.Obs.value c in
      let pool = B.Pool.create ~domains:4 () in
      ignore
        (B.Pool.map_array pool
           (fun x ->
             B.Obs.add c x;
             x)
           (Array.of_list xs));
      B.Obs.value c - before = List.fold_left ( + ) 0 xs)

(* Pool workers are started once and parked between calls, each recording
   into its own shard for good: totals stay exact and the registry does
   not grow with the number of pool calls. *)
let test_parked_worker_shards () =
  let c = B.Obs.counter "test.obs.reused" in
  let sk = B.Obs.sketch ~kind:B.Obs.Det "test.obs.reused_sk" in
  let calls = 300 in
  let run jobs =
    B.Obs.reset ();
    let pool = B.Pool.create ~domains:jobs () in
    let call k =
      ignore
        (B.Pool.map_array pool
           (fun x ->
             B.Obs.add c x;
             B.Obs.observe_sk sk (x * k);
             x)
           (Array.init 8 Fun.id))
    in
    call 1;
    let shards = B.Obs.shard_count () in
    for k = 2 to calls do
      call k
    done;
    Alcotest.(check int)
      (Printf.sprintf "no new shards over %d calls at jobs=%d" calls jobs)
      shards (B.Obs.shard_count ());
    (B.Obs.value c, B.Obs.Sketch.snapshot sk, det_snapshot ())
  in
  let v1, sk1, snap1 = run 1 in
  let v2, sk2, snap2 = run 2 in
  Alcotest.(check int) "exact total at jobs=1" (calls * 28) v1;
  Alcotest.(check int) "exact total at jobs=2" (calls * 28) v2;
  Alcotest.(check int) "sketch count" (calls * 8) (B.Obs.Sketch.count sk2);
  Alcotest.(check bool) "same sketch at jobs=1 and jobs=2" true (sk1 = sk2);
  Alcotest.check snapshot_t "same Det snapshot at jobs=1 and jobs=2" snap1 snap2

(* {1 Det counters: identical for any -j and across reruns} *)

(* E1-E3 exercise Robust under parallel sweeps, the explorer config
   exercises Sync_net + Faults + Explore (now over the work-stealing map:
   its steal counter is Volatile, so it must NOT surface here), and the
   learning runs exercise the incremental-EU cache counters; only counters
   classified Det may appear with nonzero values in this comparison. *)
let det_workload ~jobs () =
  B.Obs.reset ();
  List.iter
    (fun id ->
      match Bn_experiments.Experiments.render ~jobs id with
      | Some _ -> ()
      | None -> Alcotest.failf "unknown experiment %s" id)
    [ "E1"; "E2"; "E3" ];
  let pool = B.Pool.create ~domains:jobs () in
  ignore (FS.explore_eig_n3t1 ~pool ~seed:42 ~trials:20 ());
  ignore (B.Learning.replicator ~rounds:100 B.Games.matching_pennies);
  ignore (B.Learning.fictitious_play ~rounds:100 B.Games.prisoners_dilemma);
  det_snapshot ()

let test_det_jobs_invariant () =
  let s1 = det_workload ~jobs:1 () in
  let s4 = det_workload ~jobs:4 () in
  Alcotest.check snapshot_t "Det counters identical at jobs=1 and jobs=4" s1 s4;
  let s1' = det_workload ~jobs:1 () in
  Alcotest.check snapshot_t "Det counters identical across reruns" s1 s1';
  let get name s = try List.assoc name s with Not_found -> 0 in
  Alcotest.(check bool) "incremental-EU recomputes surfaced as Det" true
    (get "learning.eu_recomputes" s1 > 0);
  Alcotest.(check bool) "incremental-EU skips surfaced as Det" true
    (get "learning.eu_skips" s1 > 0)

(* The SoA engines count steps, requests, satisfactions, flushes and
   cross-shard events as Det: the batched exchange makes all of them pure
   functions of (seed, shards, steps), never of the domain budget. *)
let soa_workload ~jobs () =
  B.Obs.reset ();
  let params = { (B.Scrip.default_params ~n:2_000) with B.Scrip.rounds = 0 } in
  ignore
    (B.Scrip_soa.run ~jobs ~shards:16 ~seed:42 ~steps:30 ~params
       ~kind_of:(fun i -> if i mod 9 = 0 then B.Scrip.Hoarder else B.Scrip.Standard 5)
       ~money_per_agent:2.0 ());
  ignore
    (B.Gnutella_soa.simulate ~jobs ~shards:16 (B.Prng.create 42)
       (B.Gnutella.default_params ~users:2_000));
  det_snapshot ()

let test_soa_det_counters () =
  let s1 = soa_workload ~jobs:1 () in
  let s4 = soa_workload ~jobs:4 () in
  Alcotest.check snapshot_t "SoA Det counters identical at jobs=1 and jobs=4" s1 s4;
  let s1' = soa_workload ~jobs:1 () in
  Alcotest.check snapshot_t "SoA Det counters identical across reruns" s1 s1';
  let get name = try List.assoc name s1 with Not_found -> 0 in
  Alcotest.(check int) "scrip_soa.steps" 30 (get "scrip_soa.steps");
  Alcotest.(check int) "scrip_soa.flushes" 30 (get "scrip_soa.flushes");
  Alcotest.(check bool) "scrip_soa.requests ticked" true (get "scrip_soa.requests" > 0);
  Alcotest.(check bool) "scrip_soa cross-shard events ticked" true
    (get "scrip_soa.cross_shard_events" > 0);
  Alcotest.(check int) "gnutella_soa.queries" 100_000 (get "gnutella_soa.queries");
  Alcotest.(check bool) "gnutella_soa cross-shard events ticked" true
    (get "gnutella_soa.cross_shard_events" > 0)

(* Stealing moves work between domains at the scheduler's whim, so the
   pool.steals counter is Volatile by construction: it must stay out of
   the Det snapshot (or the jobs-invariance above would be violated), while
   still being observable on the volatile side. *)
let test_steal_counter_volatile () =
  B.Obs.reset ();
  let pool = B.Pool.create ~domains:4 () in
  let busy x =
    let acc = ref x in
    for i = 1 to if x = 0 then 100_000 else 10 do
      acc := (!acc * 31) lxor i
    done;
    !acc
  in
  ignore (B.Pool.map_array_steal pool busy (Array.init 64 Fun.id));
  Alcotest.(check bool) "pool.steals absent from Det snapshot" true
    (not (List.mem_assoc "pool.steals" (det_snapshot ())));
  Alcotest.(check bool) "pool.steals present in Volatile snapshot" true
    (List.mem_assoc "pool.steals" (B.Obs.counters_snapshot ~kind:B.Obs.Volatile ()))

(* Pinned golden snapshot for the fixed-seed explorer run (serial). A
   change here means either the explorer's behaviour changed (update
   EXPECTED alongside the transcript goldens) or an instrumentation point
   moved — if the new value varies with -j, the counter is misclassified
   and must become Volatile. *)
let test_golden_explore_snapshot () =
  B.Obs.reset ();
  ignore (FS.explore_eig_n3t1 ~seed:42 ~trials:20 ());
  let got = List.filter (fun (_, v) -> v > 0) (det_snapshot ()) in
  let expected =
    [
      ("explore.schedules", 20);
      ("explore.shrink_evals", 44);
      ("explore.violations", 14);
      ("faults.link_events_applied", 69);
      ("sync_net.messages_dropped", 46);
      ("sync_net.messages_sent", 1281);
      ("sync_net.rounds", 156);
      ("sync_net.runs", 78);
    ]
  in
  Alcotest.check snapshot_t "golden Det snapshot (explore-eig-n3-t1, seed 42)" expected got

(* {1 Spans} *)

let collect_events f =
  B.Obs.reset ();
  B.Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> B.Obs.set_tracing false) f;
  B.Obs.events ()

(* Per domain, every End must name the innermost open Begin and no span
   may stay open. [events] returns per-domain chronological streams, so
   filtering by tid preserves each domain's program order. *)
let check_well_nested evs =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let begins = ref 0 in
  List.iter
    (fun (e : B.Obs.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | B.Obs.Begin ->
        incr begins;
        Hashtbl.replace stacks e.tid (e.ename :: stack)
      | B.Obs.End -> (
        match stack with
        | top :: rest ->
          Alcotest.(check string) "End names the innermost open span" top e.ename;
          Hashtbl.replace stacks e.tid rest
        | [] -> Alcotest.fail "End event without a matching Begin")
      | B.Obs.Instant -> ())
    evs;
  List.iter
    (fun (tid, stack) ->
      Alcotest.(check int) (Printf.sprintf "domain %d has no open spans" tid) 0
        (List.length stack))
    (B.Tbl.sorted_bindings stacks);
  !begins

let test_span_nesting_real_workload () =
  let evs =
    collect_events (fun () ->
        (match Bn_experiments.Experiments.render ~jobs:4 "E1" with
        | Some _ -> ()
        | None -> Alcotest.fail "unknown experiment E1");
        ignore (FS.explore_eig_n3t1 ~seed:42 ~trials:5 ()))
  in
  let begins = check_well_nested evs in
  Alcotest.(check bool) "recorded a non-trivial number of spans" true (begins > 10);
  Alcotest.(check int) "span_count matches Begin events" begins (B.Obs.span_count ());
  let names =
    List.filter_map
      (fun (e : B.Obs.event) -> if e.ph = B.Obs.Begin then Some e.ename else None)
      evs
  in
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "trace contains a %S span" required)
        true (List.mem required names))
    [ "exp.E1"; "pool.chunk"; "robust.search"; "sync_net.run"; "sync_net.round"; "explore.trial" ]

let test_spans_off_by_default () =
  B.Obs.reset ();
  ignore (FS.explore_eig_n3t1 ~seed:42 ~trials:2 ());
  Alcotest.(check int) "no spans recorded with tracing off" 0 (B.Obs.span_count ());
  Alcotest.(check int) "no events recorded with tracing off" 0 (List.length (B.Obs.events ()))

let prop_span_nesting =
  QCheck.Test.make ~name:"random span shapes are well-nested" ~count:20
    QCheck.(small_list (int_bound 4))
    (fun shape ->
      let evs =
        collect_events (fun () ->
            List.iter
              (fun depth ->
                let rec nest d =
                  if d > 0 then B.Obs.span "test.obs.nest" (fun () -> nest (d - 1))
                in
                nest depth)
              shape)
      in
      check_well_nested evs = List.fold_left ( + ) 0 shape)

(* {1 Exporters} *)

let test_exporters_valid_json () =
  B.Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> B.Obs.set_tracing false)
    (fun () ->
      B.Obs.reset ();
      let h = B.Obs.hist "test.obs.hist" in
      List.iter (B.Obs.observe h) [ 0; 1; 2; 3; 1000; 1000000 ];
      ignore (FS.explore_eig_n3t1 ~seed:1 ~trials:5 ()));
  Alcotest.(check bool) "chrome trace is valid JSON" true
    (B.Obs.Json.validate (B.Obs.Export.chrome_trace ()));
  Alcotest.(check bool) "metrics snapshot is valid JSON" true
    (B.Obs.Json.validate (B.Obs.Export.metrics_json ()));
  B.Obs.reset ();
  Alcotest.(check bool) "empty chrome trace is valid JSON" true
    (B.Obs.Json.validate (B.Obs.Export.chrome_trace ()));
  Alcotest.(check bool) "empty metrics snapshot is valid JSON" true
    (B.Obs.Json.validate (B.Obs.Export.metrics_json ()))

let test_json_validator () =
  let ok = [ "{}"; "[]"; "null"; "-12.5e-3"; {|{"a":[1,2,{"b":"x\né"}],"c":false}|} ] in
  let bad = [ ""; "{"; "[1,]"; {|{"a":}|}; {|"unterminated|}; "{} x"; "01"; "+1"; "nul" ] in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "accepts %s" s) true (B.Obs.Json.validate s))
    ok;
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "rejects %s" s) false (B.Obs.Json.validate s))
    bad

let prop_escape_valid =
  QCheck.Test.make ~name:"json_escape always yields a valid JSON string" ~count:200
    QCheck.string
    (fun s -> B.Obs.Json.validate ("\"" ^ B.Obs.json_escape s ^ "\""))

(* {1 Quantile sketches} *)

module Sk = B.Obs.Sketch

let contains s ~sub =
  let ls = String.length sub and ln = String.length s in
  let rec scan i = i + ls <= ln && (String.sub s i ls = sub || scan (i + 1)) in
  ls = 0 || scan 0

(* Exact nearest-rank quantile over the raw values, the reference the
   sketch's bounded-error claim is checked against. *)
let exact_quantile vs q =
  let sorted = List.sort compare vs in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  List.nth sorted (rank - 1)

let test_sketch_basic () =
  let s = Sk.of_values [ 5; 1; 3; 3; 2 ] in
  Alcotest.(check int) "count" 5 (Sk.count s);
  (* Values below 64 land in exact buckets, so small-value quantiles are
     exact nearest-rank. *)
  Alcotest.(check int) "p50 exact below 64" 3 (Sk.quantile s 0.5);
  Alcotest.(check int) "p999 = max for small sets" 5 (Sk.quantile s 0.999);
  Alcotest.(check int) "q=0 clamps to rank 1" 1 (Sk.quantile s 0.0);
  Alcotest.(check int) "empty sketch quantile is 0" 0 (Sk.quantile Sk.empty 0.5);
  Alcotest.(check int) "negatives clamp to 0" 0 (Sk.quantile (Sk.of_values [ -7 ]) 0.5);
  let qs = Sk.quantiles s in
  Alcotest.(check (list string)) "quantiles labels"
    [ "p50"; "p90"; "p99"; "p999" ]
    (List.map fst qs)

let prop_sketch_merge =
  QCheck.Test.make ~name:"sketch merge is associative and commutative" ~count:100
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 40) (int_bound 1_000_000))
        (list_of_size Gen.(0 -- 40) (int_bound 1_000_000))
        (list_of_size Gen.(0 -- 40) (int_bound 1_000_000)))
    (fun (a, b, c) ->
      let sa = Sk.of_values a and sb = Sk.of_values b and sc = Sk.of_values c in
      Sk.merge (Sk.merge sa sb) sc = Sk.merge sa (Sk.merge sb sc)
      && Sk.merge sa sb = Sk.merge sb sa
      && Sk.count (Sk.merge sa sb) = List.length a + List.length b
      && Sk.merge sa Sk.empty = sa)

let prop_sketch_rank_error =
  QCheck.Test.make ~name:"sketch quantiles within 1/32 of exact nearest-rank" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1_000_000))
    (fun vs ->
      let s = Sk.of_values vs in
      List.for_all
        (fun q ->
          let exact = exact_quantile vs q in
          let got = Sk.quantile s q in
          abs (got - exact) <= max 1 (exact / 32))
        [ 0.5; 0.9; 0.99; 0.999 ])

(* The Det sketch sections of the workloads above must be byte-identical
   at -j1 and -j4 and across reruns — the sketch analogue of
   [test_det_jobs_invariant]. Cells are compared structurally (bucket
   indices AND counts), which is exactly what obsdiff asserts. *)
let det_sketch_workload ~jobs () =
  B.Obs.reset ();
  let pool = B.Pool.create ~domains:jobs () in
  ignore (FS.explore_eig_n3t1 ~pool ~seed:42 ~trials:20 ());
  let params = { (B.Scrip.default_params ~n:2_000) with B.Scrip.rounds = 0 } in
  ignore
    (B.Scrip_soa.run ~jobs ~shards:16 ~seed:42 ~steps:10 ~params
       ~kind_of:(fun i -> if i mod 9 = 0 then B.Scrip.Hoarder else B.Scrip.Standard 5)
       ~money_per_agent:2.0 ());
  ignore
    (B.Gnutella_soa.simulate ~jobs ~shards:16 (B.Prng.create 42)
       (B.Gnutella.default_params ~users:2_000));
  List.map
    (fun (name, snap) ->
      ( name,
        Printf.sprintf "n=%d %s" (Sk.count snap)
          (String.concat ";"
             (List.map (fun (b, c) -> Printf.sprintf "%d:%d" b c) snap.Sk.cells)) ))
    (B.Obs.sketches_snapshot ~kind:B.Obs.Det ())

let test_sketch_det_invariance () =
  let s1 = det_sketch_workload ~jobs:1 () in
  let s4 = det_sketch_workload ~jobs:4 () in
  Alcotest.(check (list (pair string string))) "Det sketches identical at jobs=1 and jobs=4" s1 s4;
  let s1' = det_sketch_workload ~jobs:1 () in
  Alcotest.(check (list (pair string string))) "Det sketches identical across reruns" s1 s1';
  let count name =
    match List.assoc_opt name (B.Obs.sketches_snapshot ~kind:B.Obs.Det ()) with
    | Some snap -> Sk.count snap
    | None -> -1
  in
  Alcotest.(check int) "shrink-evals sketch counts the violations" 14
    (count "explore.shrink_evals_per_violation");
  Alcotest.(check int) "scrip requests/step sketch counts the steps" 10
    (count "scrip_soa.requests_per_step");
  Alcotest.(check bool) "gnutella queries/batch sketch populated" true
    (count "gnutella_soa.queries_per_batch" > 0)

(* Wall-clock sketches stay empty until --profile/--metrics style flags
   flip the timing switch: with it off, [timed] is one atomic load. *)
let test_volatile_sketch_gated () =
  B.Obs.reset ();
  let params = { (B.Scrip.default_params ~n:500) with B.Scrip.rounds = 0 } in
  let run () =
    ignore
      (B.Scrip_soa.run ~shards:4 ~seed:1 ~steps:3 ~params
         ~kind_of:(fun _ -> B.Scrip.Standard 5)
         ~money_per_agent:2.0 ())
  in
  run ();
  let count name =
    match List.assoc_opt name (B.Obs.sketches_snapshot ~kind:B.Obs.Volatile ()) with
    | Some snap -> Sk.count snap
    | None -> -1
  in
  Alcotest.(check int) "timing off records nothing" 0 (count "scrip_soa.step_ns");
  B.Obs.set_timing true;
  Fun.protect
    ~finally:(fun () -> B.Obs.set_timing false)
    (fun () ->
      run ();
      Alcotest.(check int) "timing on records one duration per step" 3
        (count "scrip_soa.step_ns"))

(* {1 Profiler and GC probes} *)

let test_profile_rows_and_folded () =
  B.Obs.reset ();
  B.Obs.set_tracing true;
  B.Obs.set_gc_probes true;
  Fun.protect
    ~finally:(fun () ->
      B.Obs.set_tracing false;
      B.Obs.set_gc_probes false)
    (fun () ->
      List.iter
        (fun id -> ignore (Bn_experiments.Experiments.render ~jobs:2 id))
        [ "E1"; "E2"; "E3" ]);
  let rows = B.Obs.Profile.rows () in
  let leaf r = List.nth r.B.Obs.Profile.path (List.length r.B.Obs.Profile.path - 1) in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "profile covers %s" name)
        true
        (List.exists (fun r -> leaf r = name) rows))
    [ "exp.E1"; "exp.E2"; "exp.E3" ];
  List.iter
    (fun r ->
      Alcotest.(check bool) "exclusive <= inclusive" true
        (r.B.Obs.Profile.excl_us <= r.B.Obs.Profile.incl_us +. 1e-6);
      Alcotest.(check bool) "exclusive >= 0" true (r.B.Obs.Profile.excl_us >= -1e-6))
    rows;
  let table = B.Obs.Profile.table () in
  Alcotest.(check bool) "table has the header" true (contains table ~sub:"excl ms");
  let folded = B.Obs.Profile.folded () in
  Alcotest.(check bool) "folded output is non-empty" true (String.length folded > 0);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line without weight: %S" line
      | Some i ->
        let weight = String.sub line (i + 1) (String.length line - i - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "folded weight is a positive int: %S" line)
          true
          (match int_of_string_opt weight with Some w -> w > 0 | None -> false))
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' folded));
  (* GC probes attributed per region: the E-experiments allocate. *)
  let gc = B.Obs.gc_snapshot () in
  Alcotest.(check bool) "gc snapshot has the exp.E3 region" true (List.mem_assoc "exp.E3" gc)

let test_gc_probes_off_by_default () =
  B.Obs.reset ();
  B.Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> B.Obs.set_tracing false)
    (fun () -> ignore (FS.explore_eig_n3t1 ~seed:3 ~trials:2 ()));
  Alcotest.(check (list (pair string (triple int int int)))) "no gc data without the switch" []
    (List.map (fun (n, (a, b, c)) -> (n, (a, b, c))) (B.Obs.gc_snapshot ()))

(* The allocation gate: Scrip_soa's step reads and writes unboxed columns
   and draws from an allocation-free Prng, so a whole step (draw phase,
   flush and bookkeeping) allocates under one word per request; boxed
   accessors and draws would cost ~30. *)
let test_scrip_step_alloc_gate () =
  let params = { (B.Scrip.default_params ~n:10_000) with B.Scrip.rounds = 0 } in
  B.Obs.reset ();
  B.Obs.set_tracing true;
  B.Obs.set_gc_probes true;
  let st =
    Fun.protect
      ~finally:(fun () ->
        B.Obs.set_tracing false;
        B.Obs.set_gc_probes false)
      (fun () ->
        B.Scrip_soa.run ~jobs:1 ~shards:64 ~seed:17 ~steps:20 ~params
          ~kind_of:(fun i ->
            match i mod 10 with 0 -> B.Scrip.Altruist | 1 -> B.Scrip.Hoarder | _ -> B.Scrip.Standard 4)
          ~money_per_agent:2.0 ())
  in
  let words =
    match List.assoc_opt "scrip_soa.step" (B.Obs.gc_snapshot ()) with
    | Some (w, _, _) -> w
    | None -> Alcotest.fail "no gc probe data for scrip_soa.step"
  in
  B.Obs.reset ();
  let requests = st.B.Scrip_soa.requests in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d requests (< 1 per request)" words requests)
    true
    (requests > 0 && words < requests)

(* The acceptance bound: full instrumentation (tracing + timing + GC
   probes) costs < 5% at experiment scale — the `--profile --all` shape,
   where spans wrap batches of real work rather than microsecond slivers.
   The workload below matches that granularity (SoA steps of 20k agents
   plus a small explorer mix). It is measured the way perfbench measures:
   on the process CPU clock (Obs.cpu_us), so time the host gives to other
   processes does not count; in pairs of one bare and one instrumented
   run, back to back, in an order that flips every pair, so a drift in
   the host's speed hits both sides alike; and by the median of the
   per-pair ratios, so no single outlier pair decides the verdict. *)
let test_instrumentation_overhead () =
  let params = { (B.Scrip.default_params ~n:20_000) with B.Scrip.rounds = 0 } in
  let workload () =
    ignore
      (B.Scrip_soa.run ~shards:16 ~seed:11 ~steps:15 ~params
         ~kind_of:(fun _ -> B.Scrip.Standard 5)
         ~money_per_agent:2.0 ());
    ignore (FS.explore_eig_n3t1 ~seed:42 ~trials:20 ())
  in
  let instrument on =
    B.Obs.set_tracing on;
    B.Obs.set_timing on;
    B.Obs.set_gc_probes on
  in
  let run instrumented =
    instrument instrumented;
    let t0 = B.Obs.cpu_us () in
    workload ();
    let dt = B.Obs.cpu_us () -. t0 in
    instrument false;
    (* Drop the recorded spans so every instrumented run starts alike. *)
    B.Obs.reset ();
    dt
  in
  let pairs = 41 in
  Fun.protect
    ~finally:(fun () ->
      instrument false;
      B.Obs.reset ())
    (fun () ->
      B.Obs.reset ();
      (* warm caches and both paths *)
      ignore (run false);
      ignore (run true);
      let ratios =
        List.init pairs (fun k ->
            if k mod 2 = 0 then begin
              let off = run false in
              let on = run true in
              on /. off
            end
            else begin
              let on = run true in
              let off = run false in
              on /. off
            end)
      in
      let median = List.nth (List.sort compare ratios) (pairs / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "median instrumented/bare CPU ratio %.4f over %d pairs (< 1.05)" median
           pairs)
        true (median < 1.05))

(* {1 Summary quantiles (the S6 fix)} *)

let test_summary_renders_quantiles () =
  B.Obs.reset ();
  let h = B.Obs.hist ~kind:B.Obs.Volatile "test.obs.sum_hist" in
  List.iter (B.Obs.observe h) [ 1; 2; 4; 1000 ];
  let sk = B.Obs.sketch ~kind:B.Obs.Volatile "test.obs.sum_sketch" in
  List.iter (B.Obs.observe_sk sk) [ 10; 20; 30 ];
  let s = B.Obs.summary () in
  let has sub = contains s ~sub in
  Alcotest.(check bool) "summary has a quantiles section" true (has "quantiles (");
  Alcotest.(check bool) "summary shows the hist" true (has "test.obs.sum_hist");
  Alcotest.(check bool) "summary shows the sketch" true (has "test.obs.sum_sketch");
  Alcotest.(check bool) "summary shows p50 values" true (has "p50=");
  B.Obs.reset ()

(* {1 Metrics v2 + JSON parser} *)

let test_metrics_v2_sections () =
  B.Obs.reset ();
  let sk = B.Obs.sketch ~kind:B.Obs.Det "test.obs.v2_sketch" in
  List.iter (B.Obs.observe_sk sk) [ 1; 2; 300 ];
  let m = B.Obs.Export.metrics_json () in
  Alcotest.(check bool) "metrics v2 is valid JSON" true (B.Obs.Json.validate m);
  match B.Obs.Json.parse m with
  | None -> Alcotest.fail "metrics v2 did not parse"
  | Some v ->
    Alcotest.(check (option string)) "schema bumped"
      (Some "beyond-nash-metrics/2")
      (match B.Obs.Json.member "schema" v with Some (B.Obs.Json.Str s) -> Some s | _ -> None);
    (match B.Obs.Json.member "sketches" v with
    | Some (B.Obs.Json.Obj kvs) ->
      Alcotest.(check bool) "Det sketch exported" true (List.mem_assoc "test.obs.v2_sketch" kvs)
    | _ -> Alcotest.fail "no sketches section");
    (match B.Obs.Json.member "gc" v with
    | Some (B.Obs.Json.Obj _) -> ()
    | _ -> Alcotest.fail "no gc section");
    B.Obs.reset ()

let test_json_parse () =
  let module J = B.Obs.Json in
  (match J.parse {|{"a": [1, 2.5e1, "x\nA", true, null], "b": -3}|} with
  | Some (J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Num 25.0; J.Str "x\nA"; J.Bool true; J.Null ]);
                  ("b", J.Num v) ]) ->
    Alcotest.(check (float 0.0)) "negative number" (-3.0) v
  | _ -> Alcotest.fail "parse shape mismatch");
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %s" s) true (J.parse s = None))
    [ ""; "{"; "[1,]"; "01"; "{} x"; {|{"a":}|} ]

(* {1 obsdiff} *)

module Od = B.Obsdiff

let diff_exn ?threshold ?rows a b =
  match Od.diff ?threshold ?rows a b with
  | Ok r -> r
  | Error e -> Alcotest.failf "obsdiff error: %s" e

(* Same-seed reruns produce metrics whose Det sections agree, and
   obsdiff says so — acceptance criterion (a). *)
let test_obsdiff_metrics_reruns_pass () =
  ignore (det_sketch_workload ~jobs:1 ());
  let m1 = B.Obs.Export.metrics_json () in
  ignore (det_sketch_workload ~jobs:4 ());
  let m2 = B.Obs.Export.metrics_json () in
  let r = diff_exn m1 m2 in
  Alcotest.(check string) "kind detected" "metrics" r.Od.kind;
  Alcotest.(check bool) "non-trivial check count" true (List.length r.Od.checks > 5);
  Alcotest.(check int) "rerun metrics diff passes" 0 r.Od.failures;
  Alcotest.(check bool) "verdict json is valid" true
    (B.Obs.Json.validate (Od.verdict_json ~ref_name:"a" ~new_name:"b" r));
  B.Obs.reset ()

let test_obsdiff_metrics_catches_drift () =
  ignore (det_sketch_workload ~jobs:1 ());
  let m1 = B.Obs.Export.metrics_json () in
  B.Obs.reset ();
  let c = B.Obs.counter ~kind:B.Obs.Det "explore.schedules" in
  B.Obs.add c 999;
  let m2 = B.Obs.Export.metrics_json () in
  let r = diff_exn m1 m2 in
  Alcotest.(check bool) "drifted Det counters fail" true (r.Od.failures > 0);
  Alcotest.(check bool) "the drifted counter is named" true
    (List.exists
       (fun c -> c.Od.status <> Od.Pass && c.Od.cname = "counter:explore.schedules")
       r.Od.checks);
  B.Obs.reset ()

(* A doctored >2x regression fails with a nonzero failure count and the
   offending row named — acceptance criterion (b). v1 and v2 bench files
   mix freely (extra v2 columns are ignored). *)
let test_obsdiff_bench_doctored_fails () =
  let v1 =
    {|{ "schema": "beyond-nash-bench/1", "jobs": 1,
        "microbench": [ { "name": "beyond_nash learning/replicator-500-rounds", "ns_per_run": 1000.0 },
                        { "name": "beyond_nash nash/support-enum-3x3", "ns_per_run": 500.0 } ],
        "wallclock": [ { "name": "scrip/soa-1e6-step", "mode": "serial", "jobs": 1, "seconds": 0.5 } ] }|}
  in
  let v2_ok =
    {|{ "schema": "beyond-nash-bench/2", "jobs": 1,
        "microbench": [ { "name": "beyond_nash learning/replicator-500-rounds", "ns_per_run": 1500.0, "runs": 30, "p50_ns": 1400.0, "p99_ns": 1900.0, "stddev_ns": 100.0 },
                        { "name": "beyond_nash nash/support-enum-3x3", "ns_per_run": 400.0, "runs": 40, "p50_ns": 390.0, "p99_ns": 600.0, "stddev_ns": 50.0 } ],
        "wallclock": [ { "name": "scrip/soa-1e6-step", "mode": "serial", "jobs": 1, "seconds": 0.6 } ] }|}
  in
  let doctored =
    {|{ "schema": "beyond-nash-bench/2", "jobs": 1,
        "microbench": [ { "name": "beyond_nash learning/replicator-500-rounds", "ns_per_run": 3100.0 },
                        { "name": "beyond_nash nash/support-enum-3x3", "ns_per_run": 510.0 } ],
        "wallclock": [ { "name": "scrip/soa-1e6-step", "mode": "serial", "jobs": 1, "seconds": 0.51 } ] }|}
  in
  let r = diff_exn v1 v2_ok in
  Alcotest.(check string) "kind detected" "bench" r.Od.kind;
  Alcotest.(check int) "v1 vs v2 within threshold passes" 0 r.Od.failures;
  Alcotest.(check int) "all three rows compared" 3 (List.length r.Od.checks);
  let r = diff_exn v1 doctored in
  Alcotest.(check int) "exactly the doctored row fails" 1 r.Od.failures;
  Alcotest.(check bool) "the regressed row is named" true
    (List.exists
       (fun c ->
         c.Od.status = Od.Fail && c.Od.cname = "beyond_nash learning/replicator-500-rounds")
       r.Od.checks);
  (* --rows: a named row must exist on both sides. *)
  let r = diff_exn ~rows:[ "no-such-row" ] v1 v2_ok in
  Alcotest.(check bool) "missing named row fails" true (r.Od.failures > 0);
  (* A custom threshold loosens the gate. *)
  let r = diff_exn ~threshold:4.0 v1 doctored in
  Alcotest.(check int) "threshold 4x tolerates the 3.1x row" 0 r.Od.failures

let test_obsdiff_rejects_garbage () =
  (match Od.diff "{ not json" "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed REF");
  match Od.diff {|{"schema": "beyond-nash-bench/1"}|} {|{"schema": "beyond-nash-metrics/2"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted mixed artifact kinds"

let suite =
  [
    Alcotest.test_case "counter registry" `Quick test_registry;
    Alcotest.test_case "add2 batched update" `Quick test_add2;
    QCheck_alcotest.to_alcotest prop_parallel_sum;
    Alcotest.test_case "parked workers keep shards" `Quick test_parked_worker_shards;
    Alcotest.test_case "Det counters: jobs=1 = jobs=4 (E1-E3 + explore)" `Slow
      test_det_jobs_invariant;
    Alcotest.test_case "golden Det snapshot (fixed-seed explore)" `Quick
      test_golden_explore_snapshot;
    Alcotest.test_case "Det counters: SoA engines (jobs + rerun invariant)" `Slow
      test_soa_det_counters;
    Alcotest.test_case "pool.steals is Volatile" `Quick test_steal_counter_volatile;
    Alcotest.test_case "span nesting on a real workload" `Slow test_span_nesting_real_workload;
    Alcotest.test_case "tracing off records nothing" `Quick test_spans_off_by_default;
    QCheck_alcotest.to_alcotest prop_span_nesting;
    Alcotest.test_case "exporters emit valid JSON" `Quick test_exporters_valid_json;
    Alcotest.test_case "JSON validator accept/reject" `Quick test_json_validator;
    QCheck_alcotest.to_alcotest prop_escape_valid;
    Alcotest.test_case "sketch: basics and exact small-value quantiles" `Quick test_sketch_basic;
    QCheck_alcotest.to_alcotest prop_sketch_merge;
    QCheck_alcotest.to_alcotest prop_sketch_rank_error;
    Alcotest.test_case "Det sketches: jobs=1 = jobs=4 and rerun invariant" `Slow
      test_sketch_det_invariance;
    Alcotest.test_case "Volatile timing sketches gated by set_timing" `Quick
      test_volatile_sketch_gated;
    Alcotest.test_case "profiler rows, folded export, gc regions" `Slow
      test_profile_rows_and_folded;
    Alcotest.test_case "gc probes off by default" `Quick test_gc_probes_off_by_default;
    Alcotest.test_case "gc probes: scrip_soa.step < 1 word per request" `Quick
      test_scrip_step_alloc_gate;
    Alcotest.test_case "instrumentation overhead < 5%" `Slow test_instrumentation_overhead;
    Alcotest.test_case "summary renders hist+sketch quantiles" `Quick
      test_summary_renders_quantiles;
    Alcotest.test_case "metrics v2 sections present and parseable" `Quick
      test_metrics_v2_sections;
    Alcotest.test_case "JSON parser shapes and rejections" `Quick test_json_parse;
    Alcotest.test_case "obsdiff: rerun metrics pass" `Slow test_obsdiff_metrics_reruns_pass;
    Alcotest.test_case "obsdiff: Det counter drift fails" `Slow test_obsdiff_metrics_catches_drift;
    Alcotest.test_case "obsdiff: doctored bench regression fails" `Quick
      test_obsdiff_bench_doctored_fails;
    Alcotest.test_case "obsdiff: garbage and kind mismatch rejected" `Quick
      test_obsdiff_rejects_garbage;
  ]
