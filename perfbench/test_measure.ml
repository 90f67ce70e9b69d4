(* The benchmark's arithmetic on hand-built outcomes. *)

open Measure

let ok ?(items = 1) seconds = { items; seconds; ok = true }
let bad ?(items = 1) seconds = { items; seconds; ok = false }
let secs n = List.init n (fun i -> ok (float_of_int (i + 1)))
let opt = Alcotest.(option (float 0.0))
let latencies os = Array.of_list (List.map latency os)

let percentile_rule () =
  let xs = secs 100 in
  Alcotest.check opt "median needs no samples beyond" (Some 50.0) (percentile ~min_beyond:0 0.5 (latencies xs));
  Alcotest.check opt "p90 of 100 has ten beyond" (Some 90.0) (percentile 0.9 (latencies xs));
  Alcotest.check opt "p99 of 100 is not resolved" None (percentile 0.99 (latencies xs));
  Alcotest.check opt "empty" None (percentile ~min_beyond:0 0.5 [||])

let sample_floor () =
  Alcotest.check opt "1000 samples: rank 990, ten beyond" (Some 990.0) (percentile 0.99 (latencies (secs 1000)));
  Alcotest.check opt "999 samples: nine beyond" None (percentile 0.99 (latencies (secs 999)))

let failures_are_infinite () =
  let with_failures k = secs (1000 - k) @ List.init k (fun _ -> bad 0.5) in
  (* A failure sorts beyond every completed call, whatever time it took. *)
  Alcotest.check opt "5 failures stay beyond p99" (Some 990.0) (percentile 0.99 (latencies (with_failures 5)));
  Alcotest.check opt "15 failures reach p99" (Some Float.infinity)
    (percentile 0.99 (latencies (with_failures 15)));
  Alcotest.check opt "a failed median" (Some Float.infinity)
    (percentile ~min_beyond:0 0.5 (latencies [ ok 1.0; bad 0.1; bad 0.1 ]))

let failed_counts_items () =
  let os = [ ok ~items:30 1.0; bad ~items:30 2.0; ok ~items:40 1.0; bad 1.5 ] in
  Alcotest.(check int) "attempted" 101 (attempted os);
  Alcotest.(check int) "failed" 31 (failed os);
  Alcotest.(check int) "none attempted" 0 (attempted [])

let abandoned_time_off_the_clock () =
  let os = [ ok ~items:10 1.0; bad 1.5; ok ~items:30 3.0; bad ~items:5 9.0 ] in
  Alcotest.(check (float 1e-12)) "only completed items and time" 10.0 (items_per_s os);
  Alcotest.(check (float 0.0)) "nothing completed" 0.0 (items_per_s [ bad 1.0 ])

let median_rate_over_rounds () =
  let rounds = [ [ ok ~items:10 1.0 ]; [ ok ~items:30 1.0; bad 1.5 ]; [ ok ~items:20 1.0 ] ] in
  Alcotest.(check (float 0.0)) "median of per-round rates" 20.0 (median_rate rounds)

let round_as_one_call () =
  let r = total [ ok ~items:3 1.0; ok 0.5 ] in
  Alcotest.(check int) "items" 4 r.items;
  Alcotest.(check (float 0.0)) "seconds" 1.5 r.seconds;
  Alcotest.(check (float 0.0)) "latency" 1.5 (latency r);
  Alcotest.(check (float 0.0)) "one failure fails the round" Float.infinity
    (latency (total [ ok 1.0; bad 0.5 ]))

let fixed_rounds () =
  Alcotest.(check int) "rate times seconds" 40 (rounds ~per_second:4.0 10.0);
  Alcotest.(check int) "rounded" 3 (rounds ~per_second:0.25 10.0);
  Alcotest.(check int) "at least one" 1 (rounds ~per_second:(1.0 /. 45.0) 10.0)

let median_rule () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Measure.median: empty") (fun () ->
      ignore (median []))

let scaled_to_reference () =
  let o = scale 0.5 (ok ~items:7 2.0) in
  Alcotest.(check (float 0.0)) "seconds times speed" 1.0 o.seconds;
  Alcotest.(check int) "items kept" 7 o.items;
  Alcotest.(check (float 1e-9)) "a slow host's rate, scaled, is the reference rate" 20.0
    (items_per_s [ scale 0.5 (ok ~items:20 2.0) ])

let speed_rule () =
  let r = Clock.reference in
  Alcotest.(check (float 1e-12)) "reference readings" 1.0 (Clock.speed [ r; r; r ]);
  Alcotest.(check (float 1e-12)) "median reading twice the reference" 0.5
    (Clock.speed [ 2.0 *. r; 100.0 *. r; 0.1 *. r; 2.0 *. r; 2.0 *. r ]);
  Alcotest.check_raises "no readings" (Invalid_argument "Measure.median: empty") (fun () ->
      ignore (Clock.speed []))

let cpu_clock_leaves_out_waits () =
  let (), cpu = Clock.timed Clock.Thread_cpu (fun () -> Unix.sleepf 0.1) in
  let (), process = Clock.timed Clock.Process_cpu (fun () -> Unix.sleepf 0.1) in
  Alcotest.(check bool) (Printf.sprintf "sleep on the process CPU clock: %.4f s" process) true (process < 0.02);
  let (), wall = Clock.timed Clock.Wall (fun () -> Unix.sleepf 0.1) in
  Alcotest.(check bool) (Printf.sprintf "sleep on the CPU clock: %.4f s" cpu) true (cpu < 0.02);
  Alcotest.(check bool) (Printf.sprintf "sleep on the wall clock: %.4f s" wall) true (wall >= 0.1);
  let r = Clock.reading Clock.Thread_cpu in
  Alcotest.(check bool) (Printf.sprintf "a reading takes time: %.6f s" r) true (r > 0.0 && r < 1.0)

(* No GC work can land inside a reading: it allocates at most the boxed
   floats of its two clock reads. *)
let reading_allocates_nothing () =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Clock.reading Clock.Thread_cpu));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words" words) true (words <= 16.0)

(* A busy loop of about 0.2 s of CPU time: about ten samples, whose time
   is not counted. *)
let sampled_loop () =
  let busy () =
    let t0 = Clock.now Clock.Thread_cpu and x = ref 0 in
    while Clock.now Clock.Thread_cpu -. t0 < 0.2 do
      incr x
    done;
    !x
  in
  let _, raw = Clock.timed Clock.Thread_cpu busy in
  let _, dt, speed = Clock.sampled busy in
  Alcotest.(check bool) (Printf.sprintf "a speed was sampled: %s" (match speed with Some s -> string_of_float s | None -> "none"))
    true (Option.is_some speed);
  Alcotest.(check bool) (Printf.sprintf "samples' time left out: %.4f s against %.4f s" dt raw) true (dt < raw);
  let _, _, short = Clock.sampled (fun () -> ()) in
  Alcotest.(check bool) "nothing sampled in a short call" true (short = None)

let limit = 0.1

let abandoned_within_limit name spin () =
  let t0 = Unix.gettimeofday () in
  let r = with_limit limit spin in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (name ^ " abandoned") true (r = None);
  Alcotest.(check bool) (Printf.sprintf "%s stopped at %.3f s" name dt) true
    (dt >= limit && dt < limit +. 0.5)

let spin_alloc () =
  while true do
    ignore (Sys.opaque_identity (ref 0))
  done

let spin_no_alloc () =
  let r = ref 0 in
  while true do
    incr r
  done

let finished_call_is_kept () =
  Alcotest.(check (option int)) "returns" (Some 42) (with_limit limit (fun () -> 42));
  (* The alarm is disarmed: waiting past the limit raises nothing. *)
  Unix.sleepf (2.0 *. limit);
  Alcotest.check_raises "other exceptions pass through" Exit (fun () ->
      ignore (with_limit limit (fun () -> raise Exit)));
  Unix.sleepf (2.0 *. limit)

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "sample-count floor" `Quick sample_floor;
          Alcotest.test_case "failures beyond every percentile" `Quick failures_are_infinite;
          Alcotest.test_case "failed and attempted count items" `Quick failed_counts_items;
          Alcotest.test_case "abandoned time off items_per_s" `Quick abandoned_time_off_the_clock;
          Alcotest.test_case "median rate over rounds" `Quick median_rate_over_rounds;
          Alcotest.test_case "a round as one call" `Quick round_as_one_call;
          Alcotest.test_case "fixed rounds per run" `Quick fixed_rounds;
          Alcotest.test_case "median" `Quick median_rule;
          Alcotest.test_case "scaled to reference seconds" `Quick scaled_to_reference;
        ] );
      ( "clock",
        [
          Alcotest.test_case "speed from readings" `Quick speed_rule;
          Alcotest.test_case "CPU clock leaves out waits" `Quick cpu_clock_leaves_out_waits;
          Alcotest.test_case "a reading allocates nothing" `Quick reading_allocates_nothing;
          Alcotest.test_case "sampled speed, samples' time left out" `Quick sampled_loop;
        ] );
      ( "limit",
        [
          Alcotest.test_case "allocating loop abandoned" `Quick
            (abandoned_within_limit "allocating loop" spin_alloc);
          Alcotest.test_case "non-allocating loop abandoned" `Quick
            (abandoned_within_limit "non-allocating loop" spin_no_alloc);
          Alcotest.test_case "finished call kept, timer disarmed" `Quick finished_call_is_kept;
        ] );
    ]
