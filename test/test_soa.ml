module B = Beyond_nash
module Soa = B.Soa

(* {1 Partition} *)

let test_partition_covers () =
  let p = Soa.partition ~n:10 ~shards:3 in
  Alcotest.(check int) "n" 10 (Soa.n p);
  Alcotest.(check int) "shards" 3 (Soa.shards p);
  let covered = Array.make 10 0 in
  for s = 0 to Soa.shards p - 1 do
    let lo, hi = Soa.bounds p s in
    Alcotest.(check bool) "ordered" true (lo <= hi);
    for i = lo to hi - 1 do
      covered.(i) <- covered.(i) + 1
    done
  done;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "agent %d covered once" i) 1 c)
    covered

let test_partition_clamps () =
  let p = Soa.partition ~n:3 ~shards:64 in
  Alcotest.(check bool) "shards <= n" true (Soa.shards p <= 3);
  let p0 = Soa.partition ~n:0 ~shards:4 in
  Alcotest.(check int) "empty population still has a shard" 1 (Soa.shards p0)

let partition_property =
  QCheck.Test.make ~count:200 ~name:"soa: partition is a balanced disjoint cover"
    QCheck.(pair (int_range 0 500) (int_range 1 80))
    (fun (n, shards) ->
      let p = Soa.partition ~n ~shards in
      let sizes =
        List.init (Soa.shards p) (fun s ->
            let lo, hi = Soa.bounds p s in
            hi - lo)
      in
      let total = List.fold_left ( + ) 0 sizes in
      let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
      (* cover, balance, and shard_of consistency *)
      total = n
      && mx - mn <= 1
      && List.for_all
           (fun s ->
             let lo, hi = Soa.bounds p s in
             let ok = ref true in
             for i = lo to hi - 1 do
               if Soa.shard_of p i <> s then ok := false
             done;
             !ok)
           (List.init (Soa.shards p) Fun.id))

(* {1 Columns} *)

let test_columns_roundtrip () =
  let f = Soa.F64.create 5 and i32 = Soa.I32.create 5 and i8 = Soa.I8.create 5 in
  Alcotest.(check int) "f64 len" 5 (Soa.F64.length f);
  Alcotest.(check int) "i32 len" 5 (Soa.I32.length i32);
  Alcotest.(check int) "i8 len" 5 (Soa.I8.length i8);
  Alcotest.(check (float 0.0)) "zero-filled" 0.0 (Soa.F64.get f 3);
  Alcotest.(check int32) "zero-filled" 0l (Soa.I32.get i32 3);
  Soa.F64.set f 2 3.25;
  Soa.I32.set i32 2 (-7l);
  Soa.I8.set i8 2 2;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.25 (Soa.F64.get f 2);
  Alcotest.(check int32) "i32 roundtrip (signed)" (-7l) (Soa.I32.get i32 2);
  Alcotest.(check int) "i8 roundtrip" 2 (Soa.I8.get i8 2);
  Soa.I32.fill i32 9l;
  Alcotest.(check int32) "fill" 9l (Soa.I32.get i32 4);
  Alcotest.(check (array int)) "to_array" [| 9; 9; 9; 9; 9 |] (Soa.I32.to_array i32);
  Alcotest.(check (array (float 0.0))) "to_array"
    [| 0.0; 0.0; 3.25; 0.0; 0.0 |] (Soa.F64.to_array f)

(* {1 Exchange}

   The engines replay the exchange by reading its buffers in place;
   [Oracles.Exchange.flush] is that read as a closure per event, so these
   tests pin the view's order and [clear]. *)

let test_exchange_flush_order () =
  (* Replay must be (src, dst, posting order) regardless of the
     interleaving that posted the events. *)
  let ex = Soa.Exchange.create ~shards:3 in
  Soa.Exchange.post ex ~src:2 ~dst:0 20 0;
  Soa.Exchange.post ex ~src:0 ~dst:1 1 10;
  Soa.Exchange.post ex ~src:0 ~dst:0 0 0;
  Soa.Exchange.post ex ~src:0 ~dst:1 2 11;
  Soa.Exchange.post ex ~src:1 ~dst:2 12 21;
  Alcotest.(check int) "pending" 5 (Soa.Exchange.pending ex);
  let log = ref [] in
  let count =
    Oracles.Exchange.flush ex (fun ~src ~dst a b -> log := (src, dst, a, b) :: !log)
  in
  Alcotest.(check int) "replayed" 5 count;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "lexicographic (src, dst), posting order within"
    [ ((0, 0), (0, 0)); ((0, 1), (1, 10)); ((0, 1), (2, 11)); ((1, 2), (12, 21)); ((2, 0), (20, 0)) ]
    (List.rev_map (fun (s, d, a, b) -> ((s, d), (a, b))) !log);
  Alcotest.(check int) "cleared" 0 (Soa.Exchange.pending ex);
  Alcotest.(check int) "second flush empty" 0
    (Oracles.Exchange.flush ex (fun ~src:_ ~dst:_ _ _ -> ()))

let test_exchange_rejects_wide_events () =
  (* Events are stored in 32 bits; a wider value must not be truncated. *)
  let ex = Soa.Exchange.create ~shards:2 in
  Soa.Exchange.post ex ~src:0 ~dst:1 (-(1 lsl 31)) ((1 lsl 31) - 1);
  Alcotest.check_raises "2^31" (Invalid_argument "Soa.Exchange.post: event outside 32 bits")
    (fun () -> Soa.Exchange.post ex ~src:0 ~dst:1 (1 lsl 31) 0);
  Alcotest.check_raises "-2^40" (Invalid_argument "Soa.Exchange.post: event outside 32 bits")
    (fun () -> Soa.Exchange.post ex ~src:1 ~dst:0 0 (-(1 lsl 40)));
  let log = ref [] in
  ignore (Oracles.Exchange.flush ex (fun ~src:_ ~dst:_ a b -> log := (a, b) :: !log));
  Alcotest.(check (list (pair int int))) "in-range extremes round-trip"
    [ (-(1 lsl 31), (1 lsl 31) - 1) ] !log

let exchange_property =
  QCheck.Test.make ~count:100 ~name:"soa: exchange replays every event exactly once"
    QCheck.(list_of_size Gen.(int_range 0 60) (pair (int_range 0 3) (int_range 0 3)))
    (fun routes ->
      let ex = Soa.Exchange.create ~shards:4 in
      List.iteri (fun i (src, dst) -> Soa.Exchange.post ex ~src ~dst i (i * 2)) routes;
      let seen = ref [] in
      let count = Oracles.Exchange.flush ex (fun ~src:_ ~dst:_ a _ -> seen := a :: !seen) in
      count = List.length routes
      && List.sort compare !seen = List.init (List.length routes) Fun.id)

(* {1 The scrip step against its closure-replay oracle} *)

(* Agent kinds repeat a short random pattern; shard counts are 1, n, a
   divisor of n (the partition's size boundary at 0) or any count, but at
   most 200: the exchange holds shards² buffers. *)
let arb_scrip_case =
  let open QCheck.Gen in
  let kind =
    oneof
      [
        map (fun k -> B.Scrip.Standard k) (int_range 0 8);
        return B.Scrip.Hoarder;
        return B.Scrip.Altruist;
      ]
  in
  let gen =
    oneof [ int_range 2 60; int_range 2 3_000 ] >>= fun n ->
    let cap = min n 200 in
    let divisors = List.filter (fun d -> n mod d = 0) (List.init cap (fun i -> i + 1)) in
    oneof [ return 1; return cap; oneofl divisors; int_range 1 cap ] >>= fun shards ->
    list_size (int_range 1 12) kind >>= fun kinds ->
    int_range 0 50 >>= fun money10 ->
    int_range 1 4 >>= fun steps ->
    int_range 0 100_000 >>= fun seed ->
    return (n, shards, kinds, float_of_int money10 /. 10.0, steps, seed)
  in
  let print (n, shards, kinds, money, steps, seed) =
    Printf.sprintf "n=%d shards=%d kinds=%d money=%.1f steps=%d seed=%d" n shards
      (List.length kinds) money steps seed
  in
  QCheck.make ~print gen

let scrip_replay_matches_oracle =
  QCheck.Test.make ~count:60
    ~name:"scrip soa: inline replay = closure-replay oracle (stats, Det counters, -j 1 and -j 2)"
    arb_scrip_case
    (fun (n, shards, kinds, money_per_agent, steps, seed) ->
      let table = Array.of_list kinds in
      let kind_of i = table.(i mod Array.length table) in
      let params = { (B.Scrip.default_params ~n) with B.Scrip.rounds = 0 } in
      let run jobs =
        B.Obs.reset ();
        let st =
          B.Scrip_soa.run ~jobs ~shards ~seed ~steps ~params ~kind_of ~money_per_agent ()
        in
        (st, B.Obs.counters_snapshot ~kind:B.Obs.Det (), B.Obs.sketches_snapshot ~kind:B.Obs.Det ())
      in
      let want, per_step =
        Oracles.Scrip_soa.run ~shards ~seed ~steps ~params ~kind_of ~money_per_agent ()
      in
      let st1, counters1, sketches1 = run 1 in
      let st2, counters2, sketches2 = run 2 in
      B.Obs.reset ();
      let counter name = Option.value ~default:0 (List.assoc_opt name counters1) in
      st1 = want && st2 = want && counters1 = counters2 && sketches1 = sketches2
      && counter "scrip_soa.steps" = steps
      && counter "scrip_soa.flushes" = steps
      && counter "scrip_soa.requests" = want.B.Scrip_soa.requests
      && counter "scrip_soa.satisfied" = want.B.Scrip_soa.satisfied
      && counter "scrip_soa.cross_shard_events" = want.B.Scrip_soa.cross_shard
      && List.assoc_opt "scrip_soa.requests_per_step" sketches1
         = Some (B.Obs.Sketch.of_values per_step))

(* The draw's branch-free arithmetic against the branches it replaced, for
   every agent of each shape: fixed edge shapes (one shard, one agent per
   shard, shard counts dividing n, the E17 shape) plus seeded random ones. *)
let test_branch_free_draw () =
  let rng = B.Prng.create 2008 in
  let fixed =
    [ (1, 1); (2, 1); (2, 2); (3, 2); (7, 7); (10, 3); (10, 5); (64, 64); (100, 7); (128, 64);
      (1000, 64); (1000, 1000); (4096, 64); (100_000, 64) ]
  in
  let random = List.init 50 (fun _ ->
      let n = 1 + B.Prng.int rng 2_000 in
      (n, 1 + B.Prng.int rng n))
  in
  List.iter
    (fun (n, shards) ->
      let part = Soa.partition ~n ~shards in
      for v = 0 to n - 1 do
        let want = Oracles.Scrip_soa.shard_of ~n ~shards:(Soa.shards part) v in
        if Soa.shard_of part v <> want then
          Alcotest.failf "shard_of n=%d shards=%d v=%d: %d, oracle %d" n shards v
            (Soa.shard_of part v) want
      done;
      (* Every probe draw v ∈ [0, n − 2] against choosers at both ends,
         the middle, and every chooser on small shapes. *)
      let choosers =
        if n <= 300 then List.init n Fun.id else [ 0; 1; n / 2; n - 2; n - 1; B.Prng.int rng n ]
      in
      List.iter
        (fun c ->
          for v = 0 to n - 2 do
            let want = if v >= c then v + 1 else v in
            if B.Scrip_soa.skip_self ~chooser:c v <> want then
              Alcotest.failf "skip_self n=%d c=%d v=%d: %d, want %d" n c v
                (B.Scrip_soa.skip_self ~chooser:c v) want
          done)
        choosers)
    (fixed @ random)

let suite =
  [
    Alcotest.test_case "partition: covers" `Quick test_partition_covers;
    Alcotest.test_case "partition: clamps" `Quick test_partition_clamps;
    QCheck_alcotest.to_alcotest partition_property;
    Alcotest.test_case "columns: roundtrip" `Quick test_columns_roundtrip;
    Alcotest.test_case "exchange: flush order" `Quick test_exchange_flush_order;
    Alcotest.test_case "exchange: rejects events wider than 32 bits" `Quick
      test_exchange_rejects_wide_events;
    QCheck_alcotest.to_alcotest exchange_property;
    QCheck_alcotest.to_alcotest scrip_replay_matches_oracle;
    Alcotest.test_case "draw: branch-free skip-self and shard lookup = branches" `Quick
      test_branch_free_draw;
  ]
