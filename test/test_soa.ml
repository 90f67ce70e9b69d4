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
  Alcotest.(check int) "zero-filled" 0 (Soa.I32.get i32 3);
  Soa.F64.set f 2 3.25;
  Soa.I32.set i32 2 (-7);
  Soa.I8.set i8 2 2;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.25 (Soa.F64.get f 2);
  Alcotest.(check int) "i32 roundtrip (signed)" (-7) (Soa.I32.get i32 2);
  Alcotest.(check int) "i8 roundtrip" 2 (Soa.I8.get i8 2);
  Soa.I32.fill i32 9;
  Alcotest.(check int) "fill" 9 (Soa.I32.get i32 4);
  Alcotest.(check (array (float 0.0))) "to_array"
    [| 0.0; 0.0; 3.25; 0.0; 0.0 |] (Soa.F64.to_array f)

(* {1 Exchange} *)

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
    Soa.Exchange.flush ex (fun ~src ~dst a b -> log := (src, dst, a, b) :: !log)
  in
  Alcotest.(check int) "replayed" 5 count;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "lexicographic (src, dst), posting order within"
    [ ((0, 0), (0, 0)); ((0, 1), (1, 10)); ((0, 1), (2, 11)); ((1, 2), (12, 21)); ((2, 0), (20, 0)) ]
    (List.rev_map (fun (s, d, a, b) -> ((s, d), (a, b))) !log);
  Alcotest.(check int) "cleared" 0 (Soa.Exchange.pending ex);
  Alcotest.(check int) "second flush empty" 0 (Soa.Exchange.flush ex (fun ~src:_ ~dst:_ _ _ -> ()))

let test_exchange_rejects_wide_events () =
  (* Events are stored in 32 bits; a wider value must not be truncated. *)
  let ex = Soa.Exchange.create ~shards:2 in
  Soa.Exchange.post ex ~src:0 ~dst:1 (-(1 lsl 31)) ((1 lsl 31) - 1);
  Alcotest.check_raises "2^31" (Invalid_argument "Soa.Exchange.post: event outside 32 bits")
    (fun () -> Soa.Exchange.post ex ~src:0 ~dst:1 (1 lsl 31) 0);
  Alcotest.check_raises "-2^40" (Invalid_argument "Soa.Exchange.post: event outside 32 bits")
    (fun () -> Soa.Exchange.post ex ~src:1 ~dst:0 0 (-(1 lsl 40)));
  let log = ref [] in
  ignore (Soa.Exchange.flush ex (fun ~src:_ ~dst:_ a b -> log := (a, b) :: !log));
  Alcotest.(check (list (pair int int))) "in-range extremes round-trip"
    [ (-(1 lsl 31), (1 lsl 31) - 1) ] !log

let exchange_property =
  QCheck.Test.make ~count:100 ~name:"soa: exchange replays every event exactly once"
    QCheck.(list_of_size Gen.(int_range 0 60) (pair (int_range 0 3) (int_range 0 3)))
    (fun routes ->
      let ex = Soa.Exchange.create ~shards:4 in
      List.iteri (fun i (src, dst) -> Soa.Exchange.post ex ~src ~dst i (i * 2)) routes;
      let seen = ref [] in
      let count = Soa.Exchange.flush ex (fun ~src:_ ~dst:_ a _ -> seen := a :: !seen) in
      count = List.length routes
      && List.sort compare !seen = List.init (List.length routes) Fun.id)

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
  ]
