(* The benchmark driver: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a summary, then as its last stdout line one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
   named in BENCHMARK.json, which it reads from the working directory.
   Exits 1 when an output check failed, 2 on bad usage. *)

module Json = Beyond_nash.Obs.Json

(* Re-executed by [startup_s]: returns as soon as every library module has
   been initialised. *)
let () = if Array.length Sys.argv = 2 && Sys.argv.(1) = "--startup-probe" then exit 0

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let args =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg name conv =
  match List.assoc_opt name args with
  | None -> die "missing --%s" name
  | Some v -> ( match conv v with Some x -> x | None -> die "bad --%s %S" name v)

let workload = arg "workload" Option.some
let seed = arg "seed" int_of_string_opt
let seconds = arg "seconds" float_of_string_opt
let trace = arg "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)

(* [(name, unit)] of one metric list of BENCHMARK.json. *)
let metric_list key =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> die "BENCHMARK.json: %s" k in
  match Option.bind (Json.parse text) (Json.member key) with
  | Some (Json.Arr ms) -> List.map (fun m -> (str "name" m, str "unit" m)) ms
  | _ -> die "BENCHMARK.json: no %s list" key

(* [repeat n f] runs [f] [n] times; [f] returns a value and the seconds it
   took. The host's speed is read before each run and after the last, and
   each run's seconds are scaled by the two readings around it. Returns the
   last value and the median of the scaled seconds. *)
let repeat n f =
  let rec go k before last times =
    if k = n then (Option.get last, Measure.median times)
    else begin
      let v, dt = f () in
      let after = Clock.reading Clock.Thread_cpu in
      go (k + 1) after (Some v) ((dt *. Clock.speed [ before; after ]) :: times)
    end
  in
  go 0 (Clock.reading Clock.Thread_cpu) None []

(* One launch of this executable that returns once every library module
   has been initialised (exec, runtime and module initialisers), timed by
   the child's CPU time, user and system. *)
let launch () =
  let children () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let before = children () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--startup-probe" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "start-up probe failed");
  ((), children () -. before)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> die "no VmHWM in /proc/self/status"
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

(* Runs the workload and returns its report with its set-up in reference
   seconds: the median of 31 launches plus the median CPU time of 5
   repetitions of the workload's set-up, whose state the run uses. *)
let run () =
  let (), startup = repeat 31 launch in
  let set_up f = repeat 5 (fun () -> Clock.timed Clock.Thread_cpu f) in
  let run_it, setup =
    match workload with
    | "paper-suite" -> ((fun () -> Paper_suite.run ~seconds ~trace), 0.0)
    | "solver-mix" ->
      let st, s = set_up (fun () -> Solver_mix.setup ~seed) in
      ((fun () -> Solver_mix.run st ~seconds ~trace), s)
    | "fault-explore" ->
      let st, s = set_up (fun () -> Fault_explore.setup ~seed) in
      ((fun () -> Fault_explore.run st ~seconds ~trace), s)
    | w -> die "unknown workload %S (paper-suite, solver-mix, fault-explore)" w
  in
  (run_it (), startup +. setup)

let () =
  let end_to_end = metric_list "end_to_end" and per_layer = metric_list "per_layer" in
  let (r : Workload.report), setup_s = run () in
  let peak = peak_rss_mb () in
  let all = List.concat r.Workload.rounds in
  let attempted = Measure.attempted all and failed = Measure.failed all in
  let p50 =
    match Measure.percentile ~min_beyond:0 0.5 r.Workload.latency with
    | Some v -> v *. 1e3
    | None -> 0.0
  in
  let e2e =
    [
      ("items_per_s", Measure.median_rate r.Workload.rounds);
      ("latency_p50_ms", p50);
      ("peak_rss_mb", peak);
      ("setup_s", setup_s);
    ]
  in
  let names, values =
    if trace then (per_layer, ("host.speed", r.Workload.speed) :: r.Workload.figures)
    else (end_to_end, e2e)
  in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n names) then die "figure %S is not in BENCHMARK.json" n)
    values;
  let metrics =
    List.map
      (fun (n, u) ->
        let v = Option.value (List.assoc_opt n values) ~default:0.0 in
        if not (Float.is_finite v) then die "%s is not finite" n;
        (n, v, u))
      names
  in
  Printf.printf "%s seed=%d trace=%b: %d items attempted, %d failed, %d latency samples\n"
    workload seed trace attempted failed (Array.length r.Workload.latency);
  Printf.printf "  host speed %.3f of the reference; times are in reference seconds\n"
    r.Workload.speed;
  List.iter (fun (n, v, u) -> if v <> 0.0 then Printf.printf "  %-40s %16.6g %s\n" n v u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Workload.correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v u)
          metrics));
  if not r.Workload.correct then exit 1
