(* fault-explore: Explore.explore on one 2-domain pool over every
   Fault_sweep config and every Mediator_sweep cell, round after round with
   fresh seeds. The only workload where dist_sim, byzantine, crypto and
   mediator do real work, and where Pool.map_array_steal runs. *)

module B = Beyond_nash
module Fs = Bn_experiments.Fault_sweep
module Ms = Bn_experiments.Mediator_sweep

(* Schedules per Explore call. The rarest violation, cell n=8 k=1 t=1, hits
   about 15% of its schedules, so a call misses it with probability
   0.85^128 < 1e-8 (see NOTES.md). *)
let trials = 128
let jobs = 2

type task = {
  name : string;
  sync : bool;  (** a synchronous Byzantine config, not an async mediator cell *)
  expect_violation : bool;
  explore : pool:B.Pool.t -> seed:int -> B.Explore.report;
  failures : B.Faults.schedule -> string list;
      (** the invariants a schedule breaks, for re-checking shrunk witnesses *)
}

(* The systems behind the two breaking Fault_sweep configs, with the
   parameters fault_sweep.ml gives them; a violation on any other config
   is unexpected and fails the check before its witness is looked at. *)
let sync_system = function
  | "eig-n3-t1/omission" -> B.Explore.failures (Fs.eig_system ~n:3 ~t:1 ~values:[| 1; 1; 1 |])
  | "eig-n4-t1/partition" -> B.Explore.failures (Fs.eig_system ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |])
  | _ -> fun _ -> []

let tasks =
  List.map
    (fun (c : Fs.config) ->
      {
        name = c.Fs.cname;
        sync = true;
        expect_violation = c.Fs.expect_violation;
        explore = (fun ~pool ~seed -> c.Fs.explore ~pool ~seed ~trials);
        failures = sync_system c.Fs.cname;
      })
    Fs.all
  @ List.map
      (fun (c : Ms.cell) ->
        {
          name = Ms.cell_name c;
          sync = false;
          expect_violation = Ms.expected c <> B.Feasibility.Async_implementable;
          explore = (fun ~pool ~seed -> Ms.explore_cell ~pool ~seed ~trials c);
          failures =
            B.Explore.failures
              (B.Async_cheap_talk.system ~n:c.Ms.n ~k:c.Ms.k ~t:c.Ms.t ~general_type:1);
        })
      Ms.cells

(* The verdict matches the regime, and every shrunk witness still breaks
   an invariant when replayed. *)
let check task (r : B.Explore.report) =
  (r.B.Explore.violations <> []) = task.expect_violation
  && List.for_all (fun v -> task.failures v.B.Explore.shrunk <> []) r.B.Explore.violations

type state = { seed : int; pool : B.Pool.t }

let setup ~seed = { seed; pool = B.Pool.create ~domains:jobs () }

let call_seed st round i = Hashtbl.hash (st.seed, round, i)

(* What a run keeps of one Explore call; the report itself is checked and
   dropped, so memory does not grow with the length of the run. *)
type call = { task : task; outcome : Measure.outcome; violations : int; shrink_evals : int }

(* One round: every task once, seeds fresh per round. Calls are timed on
   the process's CPU clock, summed over both domains: it leaves out steal
   and time a domain waits for a CPU, which the speed readings cannot see.
   So a gain shows as less work, not as better use of the second domain;
   that is explore.j2_speedup, on the wall clock. The host's speed is read
   before each call and after the last, when no worker domain runs, and
   the round's times are scaled by the median reading. Returns the calls
   and that speed. *)
let round st ~pool ~span r =
  let readings = ref [] in
  let read () = readings := Clock.reading Clock.Thread_cpu :: !readings in
  let calls =
    List.mapi
      (fun i task ->
        read ();
        let go () = task.explore ~pool ~seed:(call_seed st r i) in
        let go =
          if span then fun () -> B.Obs.span (if task.sync then "explore.sync" else "explore.async") go
          else go
        in
        let report, dt = Clock.timed Clock.Process_cpu go in
        let vs = report.B.Explore.violations and ok = check task report in
        if not ok then
          Printf.eprintf "fault-explore: %s, seed %d: %d violations, verdict or witness wrong\n%!"
            task.name (call_seed st r i) (List.length vs);
        {
          task;
          outcome = { Measure.items = trials; seconds = dt; ok };
          violations = List.length vs;
          shrink_evals = List.fold_left (fun n v -> n + v.B.Explore.shrink_evals) 0 vs;
        })
      tasks
  in
  read ();
  let speed = Clock.speed !readings in
  (List.map (fun c -> { c with outcome = Measure.scale speed c.outcome }) calls, speed)

let rounds_per_s = 6.0

(* Closed loop over a fixed number of rounds; returns the rounds, their
   speeds and the next round. *)
let loop st ~seconds ~span ~first =
  let n = Measure.rounds ~per_second:rounds_per_s seconds in
  let rounds, speeds = List.split (List.init n (fun i -> round st ~pool:st.pool ~span (first + i))) in
  (rounds, speeds, first + n)

let outcomes calls = List.map (fun c -> c.outcome) calls
let ok rounds = List.for_all (List.for_all (fun c -> c.outcome.Measure.ok)) rounds

(* The latency is a round's: one sweep over every config and cell. The 14
   tasks differ so much in size that a median over single calls falls in
   the gap between two of them. *)
let report (rounds, speeds) ~correct ~figures =
  let rounds = List.map outcomes rounds in
  {
    Workload.rounds;
    latency = Array.of_list (List.map (fun r -> Measure.latency (Measure.total r)) rounds);
    correct;
    speed = Measure.median speeds;
    figures;
  }

let layer_figures calls =
  let sum f = List.fold_left (fun n c -> n + f c) 0 calls in
  let violations sync = sum (fun c -> if c.task.sync = sync then c.violations else 0) in
  let all_v = sum (fun c -> c.violations) in
  [
    ("explore.sync.busy_s", Workload.busy_s "explore.sync");
    ("explore.async.busy_s", Workload.busy_s "explore.async");
    ("explore.sync.violations", float_of_int (violations true));
    ("explore.async.violations", float_of_int (violations false));
    ( "explore.shrink_evals_per_violation",
      if all_v = 0 then 0.0 else float_of_int (sum (fun c -> c.shrink_evals)) /. float_of_int all_v );
    ("explore.alloc_words", Workload.alloc_words "explore.trial");
    ("pool.chunk.excl_s", Workload.excl_s "pool.chunk");
    ("pool.steals", float_of_int (B.Obs.value (B.Obs.counter ~kind:B.Obs.Volatile "pool.steals")));
  ]
  @ List.map
      (fun l -> (l ^ ".excl_s", Workload.excl_s l))
      [ "explore.trial"; "sync_net.run"; "sync_net.round"; "async_net.run"; "async_ct.run" ]

let run st ~seconds ~trace =
  if not trace then begin
    let rounds, speeds, _ = loop st ~seconds ~span:false ~first:0 in
    report (rounds, speeds) ~correct:(ok rounds) ~figures:[]
  end
  else begin
    let plain, _, _ = loop st ~seconds ~span:false ~first:0 in
    let traced, speeds, next = Workload.traced (fun () -> loop st ~seconds ~span:true ~first:0) in
    let figures = layer_figures (List.concat traced) in
    (* The same round on one domain and on [jobs], on the wall clock. *)
    let (serial, _), t1 = Clock.timed Clock.Wall (fun () -> round st ~pool:B.Pool.serial ~span:false next) in
    let (par, _), t2 = Clock.timed Clock.Wall (fun () -> round st ~pool:st.pool ~span:false next) in
    let ips rounds = Measure.median_rate (List.map outcomes rounds) in
    report (traced, speeds)
      ~correct:(ok (plain @ traced @ [ serial; par ]))
      ~figures:
        (figures
        @ [
            ("explore.j2_speedup", t1 /. t2);
            ("obs.overhead_share", 1.0 -. (ips traced /. ips plain));
          ])
  end
