(* Property tests for the deterministic domain pool (Bn_util.Pool) and the
   indexed PRNG splitting (Prng.split) it relies on: parallel execution
   must be observationally identical to the serial loop for any domain
   count, and split streams must be reproducible and non-colliding. The
   unit cases pin the shared worker set: its cap, nested calls,
   exceptions, and span nesting on a reused worker. *)

module B = Beyond_nash

let pool_map_matches_list_map =
  QCheck.Test.make ~count:50 ~name:"pool: map ~domains:d = List.map for d in 1..8"
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 200) small_int))
    (fun (d, xs) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.map pool f xs = List.map f xs)

let pool_map_array_matches =
  QCheck.Test.make ~count:50 ~name:"pool: map_array = Array.map"
    QCheck.(pair (int_range 1 8) (array_of_size (Gen.int_range 0 200) small_int))
    (fun (d, xs) ->
      let f x = x * x in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.map_array pool f xs = Array.map f xs)

let pool_map_array_steal_matches =
  QCheck.Test.make ~count:50 ~name:"pool: map_array_steal = Array.map for d in 1..8"
    QCheck.(pair (int_range 1 8) (array_of_size (Gen.int_range 0 200) small_int))
    (fun (d, xs) ->
      (* Skewed per-item cost so stealing actually happens at d > 1. *)
      let f x =
        let n = if x mod 7 = 0 then 5000 else 5 in
        let acc = ref x in
        for i = 1 to n do
          acc := (!acc * 31) lxor i
        done;
        !acc
      in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.map_array_steal pool f xs = Array.map f xs)

let pool_iter_grid_covers_all_slots =
  QCheck.Test.make ~count:50 ~name:"pool: iter_grid touches each index exactly once"
    QCheck.(pair (int_range 1 8) (int_range 0 300))
    (fun (d, n) ->
      let pool = B.Pool.create ~domains:d () in
      let out = Array.make n 0 in
      B.Pool.iter_grid pool (fun i -> out.(i) <- out.(i) + (2 * i) + 1) (Array.init n Fun.id);
      out = Array.init n (fun i -> (2 * i) + 1))

let pool_find_first_matches_serial =
  QCheck.Test.make ~count:100 ~name:"pool: find_first returns the lowest-index hit"
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 100) small_int))
    (fun (d, xs) ->
      let f x = if x mod 3 = 0 then Some (x * 10) else None in
      let arr = Array.of_list xs in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.find_first pool f arr = List.find_map f xs)

(* {1 The worker set} *)

let max_workers = B.Pool.default_jobs () - 1

(* A budget far above the runtime's domain limit runs on the capped
   worker set instead of asking for one domain per chunk. *)
let test_budget_above_domain_limit () =
  let xs = Array.init 1000 Fun.id in
  let f x = (x * 7919) lxor 5 in
  let pool = B.Pool.create ~domains:1000 () in
  Alcotest.(check (array int)) "map_array" (Array.map f xs) (B.Pool.map_array pool f xs);
  Alcotest.(check (array int)) "map_array_steal" (Array.map f xs) (B.Pool.map_array_steal pool f xs);
  Alcotest.(check bool)
    (Printf.sprintf "at most %d workers started" max_workers)
    true
    (B.Pool.workers () <= max_workers)

(* Chunks of an outer call make calls of their own while the outer call
   holds the workers: the nested calls run what no idle worker takes. *)
let test_nested_calls () =
  let pool = B.Pool.create ~domains:4 () in
  let inner x = B.Pool.map_array pool (fun y -> (x * 31) + y) (Array.init 16 Fun.id) in
  let want = Array.init 8 (fun x -> Array.init 16 (fun y -> (x * 31) + y)) in
  for _ = 1 to 20 do
    Alcotest.(check (array (array int))) "nested map_array = serial" want
      (B.Pool.map_array pool inner (Array.init 8 Fun.id))
  done;
  Alcotest.(check bool) "worker cap holds" true (B.Pool.workers () <= max_workers)

exception Chunk_failed of int

(* Several chunks raise: the caller sees the lowest-numbered failing chunk
   after the first, else the first chunk's; each chunk stops at its first
   failing item. *)
let pool_exception_order =
  QCheck.Test.make ~count:100 ~name:"pool: exception from several chunks = the serial rule"
    QCheck.(pair (int_range 2 6) (list_of_size (Gen.int_range 1 40) bool))
    (fun (d, fails) ->
      let fails = Array.of_list fails in
      let n = Array.length fails in
      let d' = min d n in
      let first_fail j =
        let lo = j * n / d' and hi = (j + 1) * n / d' in
        let rec go i = if i >= hi then None else if fails.(i) then Some i else go (i + 1) in
        go lo
      in
      let rec expected j =
        if j >= d' then first_fail 0
        else match first_fail j with Some i -> Some i | None -> expected (j + 1)
      in
      let f i = if fails.(i) then raise (Chunk_failed i) else i in
      let pool = B.Pool.create ~domains:d () in
      let got g = match g () with _ -> None | exception Chunk_failed i -> Some i in
      let want = expected 1 in
      got (fun () -> B.Pool.map_array pool f (Array.init n Fun.id)) = want
      && got (fun () -> B.Pool.iter_grid pool (fun i -> ignore (f i)) (Array.init n Fun.id)) = want)

let test_call_after_raise () =
  let pool = B.Pool.create ~domains:2 () in
  (match B.Pool.map_array pool (fun x -> if x = 1 then failwith "chunk 1" else x) [| 0; 1 |] with
  | _ -> Alcotest.fail "the raising call returned"
  | exception Failure m -> Alcotest.(check string) "chunk 1's exception" "chunk 1" m);
  Alcotest.(check int) "every worker parked again" (B.Pool.workers ()) (B.Pool.idle_workers ());
  Alcotest.(check (array int)) "next call" [| 0; 2; 4; 6 |]
    (B.Pool.map_array pool (fun x -> 2 * x) [| 0; 1; 2; 3 |]);
  Alcotest.(check int) "parked after the next call" (B.Pool.workers ()) (B.Pool.idle_workers ())

(* Item 0 waits until item 1 has run, so while a worker exists each call
   runs one chunk on the caller and the other on a worker, whichever
   claims first. The worker's chunk spans sit at its own root, the
   caller's under the caller's open span, call after call. *)
let test_chunk_spans_nest () =
  let pool = B.Pool.create ~domains:2 () in
  let calls = 10 in
  let before = B.Pool.workers () in
  B.Obs.reset ();
  B.Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> B.Obs.set_tracing false)
    (fun () ->
      for _ = 1 to calls do
        let m = Mutex.create () and c = Condition.create () in
        let seen = [| false; false |] in
        let item i =
          B.Obs.span "test.pool.item" (fun () ->
              if B.Pool.workers () > 0 then
                Mutex.protect m (fun () ->
                    seen.(i) <- true;
                    Condition.broadcast c;
                    while not seen.(1) do
                      Condition.wait c m
                    done))
        in
        B.Obs.span "test.pool.call" (fun () -> ignore (B.Pool.map_array pool item [| 0; 1 |]))
      done);
  let rows = B.Obs.Profile.rows () in
  let calls_of path =
    List.fold_left
      (fun n (r : B.Obs.Profile.row) -> if r.path = path then n + r.calls else n)
      0 rows
  in
  let on_caller = [ "test.pool.call"; "pool.chunk" ] and on_worker = [ "pool.chunk" ] in
  let known =
    [ [ "test.pool.call" ]; on_caller; on_worker; on_caller @ [ "test.pool.item" ];
      on_worker @ [ "test.pool.item" ] ]
  in
  List.iter
    (fun (r : B.Obs.Profile.row) ->
      Alcotest.(check bool) (String.concat ";" r.path ^ " is a known nesting") true
        (List.mem r.path known))
    rows;
  Alcotest.(check int) "every chunk recorded" (2 * calls) (calls_of on_caller + calls_of on_worker);
  Alcotest.(check int) "every item under its chunk" (2 * calls)
    (calls_of (on_caller @ [ "test.pool.item" ]) + calls_of (on_worker @ [ "test.pool.item" ]));
  if max_workers > 0 then begin
    Alcotest.(check int) "one chunk per call on a worker" calls (calls_of on_worker);
    Alcotest.(check int) "the worker is reused, not respawned" (max before 1) (B.Pool.workers ())
  end

let draws rng k = List.init k (fun _ -> B.Prng.bits64 rng)

let split_reproducible =
  QCheck.Test.make ~count:100 ~name:"prng: split is reproducible from the seed"
    QCheck.(pair small_int (int_range 0 1000))
    (fun (seed, i) ->
      let a = B.Prng.split (B.Prng.create seed) i in
      let b = B.Prng.split (B.Prng.create seed) i in
      draws a 50 = draws b 50)

let split_streams_non_colliding =
  (* 10k draws from each of two sibling streams (and the parent) share no
     64-bit value — the birthday bound for honest streams is ~1e-11, so any
     hit means the derivation is broken. *)
  QCheck.Test.make ~count:5 ~name:"prng: split streams pairwise non-colliding on 10k draws"
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, i) ->
      let parent = B.Prng.create seed in
      let a = B.Prng.split parent i and b = B.Prng.split parent (i + 1) in
      let seen = Hashtbl.create (3 * 10_000) in
      let stream_fresh rng =
        let ok = ref true in
        for _ = 1 to 10_000 do
          let v = B.Prng.bits64 rng in
          if Hashtbl.mem seen v then ok := false else Hashtbl.add seen v ()
        done;
        !ok
      in
      stream_fresh a && stream_fresh b && stream_fresh parent)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      pool_map_matches_list_map;
      pool_map_array_matches;
      pool_map_array_steal_matches;
      pool_iter_grid_covers_all_slots;
      pool_find_first_matches_serial;
      pool_exception_order;
      split_reproducible;
      split_streams_non_colliding;
    ]
  @ [
      Alcotest.test_case "pool: budget 1000 stays within the worker cap" `Quick
        test_budget_above_domain_limit;
      Alcotest.test_case "pool: nested calls do not deadlock" `Quick test_nested_calls;
      Alcotest.test_case "pool: the call after a raising call" `Quick test_call_after_raise;
      Alcotest.test_case "pool: chunk spans nest on a reused worker" `Quick test_chunk_spans_nest;
    ]
