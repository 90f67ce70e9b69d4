(** Fault-exploration sweep over the Byzantine protocols.

    One {!config} per (protocol, regime): a seeded random-schedule
    generator plus the protocol's agreement/validity invariants checked
    over the non-culprit processes ({!Beyond_nash.Faults.mask}). Regimes
    below the fault threshold must survive every schedule; regimes at or
    above it (EIG at n = 3t, a healing-free partition) must yield a
    violation that the explorer then shrinks to a minimal counterexample.

    Shared by [bin/main.exe --explore]/[--faults], experiment E4's fault
    sweep table, the bench harness, and the test suite. Everything here is
    deterministic in (seed, trials) — independent of [-j]. *)

module B = Beyond_nash

type config = {
  cname : string;
  regime : string;
  expect_violation : bool;
  quick : bool;  (** part of the [--quick] (CI smoke) subset *)
  gen : B.Prng.t -> B.Faults.schedule;  (** the config's schedule generator *)
  explore : pool:B.Pool.t -> seed:int -> trials:int -> B.Explore.report;
}

(* A run as its invariants read it, built once per evaluation: the
   schedule's culprits flagged per process, and the result with their
   outputs suppressed, so the protocols' own agreement/validity checkers
   judge only the processes the schedule cannot blame. *)
type 'o judged = { culprit : bool array; masked : 'o B.Sync_net.result }

let judged ~n schedule (r : 'o B.Sync_net.result) =
  let culprit = B.Faults.culprit_flags ~n schedule in
  {
    culprit;
    masked =
      {
        r with
        B.Sync_net.outputs =
          Array.mapi (fun i o -> if culprit.(i) then None else o) r.B.Sync_net.outputs;
      };
  }

let honest_values j values = List.filteri (fun i _ -> not j.culprit.(i)) (Array.to_list values)

(* The protocol is built once per system: its tables are shared,
   read-only, by every run on every domain, and each run's state is made
   afresh by [init]. *)
let eig_system ~n ~t ~values =
  let protocol = B.Eig.protocol ~n ~t ~values ~default:0 in
  {
    B.Explore.run =
      (fun schedule ->
        judged ~n schedule
          (B.Sync_net.run ~faults:(B.Faults.plan schedule) ~n ~rounds:(t + 1) protocol));
    invariants =
      [
        ("agreement", fun _ j -> B.Eig.agreement j.masked);
        ("validity", fun _ j -> B.Eig.validity ~honest_values:(honest_values j values) j.masked);
      ];
  }

let floodset_system ~n ~f ~values =
  {
    B.Explore.run =
      (fun schedule ->
        judged ~n schedule (B.Floodset.run ~faults:(B.Faults.plan schedule) ~n ~f ~values ()));
    invariants =
      [
        ("agreement", fun _ j -> B.Floodset.agreement j.masked);
        ("validity", fun _ j -> B.Floodset.validity ~all_values:(Array.to_list values) j.masked);
      ];
  }

let phase_king_system ~n ~t ~values =
  {
    B.Explore.run =
      (fun schedule ->
        judged ~n schedule (B.Phase_king.run ~faults:(B.Faults.plan schedule) ~n ~t ~values ()));
    invariants =
      [
        ("agreement", fun _ j -> B.Phase_king.agreement j.masked);
        ( "validity",
          fun _ j -> B.Phase_king.validity ~honest_values:(honest_values j values) j.masked );
      ];
  }

let dolev_strong_system ~n ~t =
  (* Deterministic PKI: same keys for every schedule of every trial. *)
  let pki = B.Hashing.Pki.create (B.Prng.create 7) ~n in
  {
    B.Explore.run =
      (fun schedule ->
        judged ~n schedule
          (B.Dolev_strong.run ~faults:(B.Faults.plan schedule) ~pki ~n ~t ~sender:0 ~value:1
             ~default:9 ()));
    invariants = [ ("agreement", fun _ j -> B.Dolev_strong.agreement j.masked) ];
  }

let mk cname regime ~expect_violation ~quick gen sys =
  {
    cname;
    regime;
    expect_violation;
    quick;
    gen;
    explore =
      (fun ~pool ~seed ~trials -> B.Explore.explore ~pool ~seed ~trials ~gen sys);
  }

let all : config list =
  [
    mk "eig-n4-t1/crash" "below threshold (n > 3t), <=t crash-stops" ~expect_violation:false
      ~quick:true
      (fun rng -> B.Faults.random_schedule rng (B.Faults.crash_only ~n:4 ~rounds:2 ~max_crashes:1))
      (eig_system ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |]);
    mk "eig-n4-t1/omission" "below threshold, <=t culprits drop/delay/dup/crash"
      ~expect_violation:false ~quick:true
      (fun rng ->
        B.Faults.random_schedule rng
          (B.Faults.omission ~n:4 ~rounds:2 ~max_events:4 ~max_culprits:1))
      (eig_system ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |]);
    mk "eig-n3-t1/omission" "AT threshold (n = 3t): must break" ~expect_violation:true
      ~quick:true
      (fun rng ->
        B.Faults.random_schedule rng
          (B.Faults.omission ~n:3 ~rounds:2 ~max_events:4 ~max_culprits:1))
      (eig_system ~n:3 ~t:1 ~values:[| 1; 1; 1 |]);
    mk "eig-n4-t1/partition" "network partition (blames no process): must break"
      ~expect_violation:true ~quick:true
      (fun rng ->
        B.Faults.random_schedule rng
          {
            B.Faults.n = 4;
            rounds = 2;
            max_events = 2;
            kinds = [ B.Faults.KPartition ];
            max_culprits = 1;
          })
      (eig_system ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |]);
    mk "dolev-strong-n3-t1/crash" "n = 3t but PKI: agreement must survive"
      ~expect_violation:false ~quick:true
      (fun rng -> B.Faults.random_schedule rng (B.Faults.crash_only ~n:3 ~rounds:2 ~max_crashes:1))
      (dolev_strong_system ~n:3 ~t:1);
    mk "floodset-n4-f1/crash" "below threshold (any f < n), <=f crash-stops"
      ~expect_violation:false ~quick:true
      (fun rng -> B.Faults.random_schedule rng (B.Faults.crash_only ~n:4 ~rounds:2 ~max_crashes:1))
      (floodset_system ~n:4 ~f:1 ~values:[| 2; 1; 3; 2 |]);
    mk "phase-king-n5-t1/crash" "below threshold (t < n/4), <=t crash-stops"
      ~expect_violation:false ~quick:true
      (fun rng -> B.Faults.random_schedule rng (B.Faults.crash_only ~n:5 ~rounds:4 ~max_crashes:1))
      (phase_king_system ~n:5 ~t:1 ~values:[| 1; 0; 1; 1; 0 |]);
    mk "eig-n7-t2/omission" "below threshold at scale, <=t culprits" ~expect_violation:false
      ~quick:false
      (fun rng ->
        B.Faults.random_schedule rng
          (B.Faults.omission ~n:7 ~rounds:3 ~max_events:6 ~max_culprits:2))
      (eig_system ~n:7 ~t:2 ~values:[| 1; 1; 1; 1; 1; 1; 1 |]);
  ]

let configs ~quick = if quick then List.filter (fun c -> c.quick) all else all

(* Entry point used by the bench harness: the n = 3t exploration (find +
   shrink) as a single timed kernel. *)
let explore_eig_n3t1 ?(pool = B.Pool.serial) ~seed ~trials () =
  let c = List.find (fun c -> c.cname = "eig-n3-t1/omission") all in
  c.explore ~pool ~seed ~trials

let verdict c report =
  let found = report.B.Explore.violations <> [] in
  match (c.expect_violation, found) with
  | false, false -> "OK (robust)"
  | true, true -> "OK (violation found)"
  | false, true -> "UNEXPECTED VIOLATION"
  | true, false -> "violation NOT found"

(* Render the sweep: one row per config, then a replayable transcript for
   each config that produced violations. Deterministic in (seed, trials);
   [jobs] only changes wall-clock. *)
let render ?(jobs = 1) ?(quick = false) ~trials ~seed () =
  let pool = B.Pool.create ~domains:jobs () in
  let tab =
    B.Tab.create
      ~title:
        (Printf.sprintf "fault-schedule exploration (seed=%d, %d schedules/config)" seed trials)
      [ "config"; "regime"; "violations"; "min shrunk"; "verdict" ]
  in
  let reports =
    List.map (fun c -> (c, c.explore ~pool ~seed ~trials)) (configs ~quick)
  in
  List.iter
    (fun (c, report) ->
      let shrunk = B.Explore.min_shrunk_size report in
      B.Tab.add_row tab
        [
          c.cname;
          c.regime;
          Printf.sprintf "%d/%d" (List.length report.B.Explore.violations) trials;
          (if shrunk = max_int then "-" else string_of_int shrunk);
          verdict c report;
        ])
    reports;
  B.Tab.print tab;
  List.iter
    (fun (c, report) ->
      if report.B.Explore.violations <> [] then
        B.Out.print_string (B.Explore.transcript ~name:c.cname report))
    reports;
  B.Out.print_string "\n"

(* [--faults] demo: inject one concrete schedule into EIG and show the
   effect next to the fault-free run — the single-schedule face of the
   explorer above. *)
let demo ~seed () =
  let n, t = (4, 1) in
  let values = [| 1; 1; 1; 1 |] in
  let schedule =
    B.Faults.random_schedule (B.Prng.create seed)
      (B.Faults.omission ~n ~rounds:(t + 1) ~max_events:3 ~max_culprits:t)
  in
  let tab =
    B.Tab.create
      ~title:(Printf.sprintf "fault injection demo: EIG n=%d t=%d, seed=%d" n t seed)
      [ "run"; "schedule"; "agreement"; "validity"; "msgs"; "dropped" ]
  in
  let row label faults schedule_str =
    let r = B.Eig.run ?faults ~n ~t ~values ~default:0 () in
    let j = judged ~n schedule r in
    let m = match faults with None -> r | Some _ -> j.masked in
    B.Tab.add_row tab
      [
        label;
        schedule_str;
        string_of_bool (B.Eig.agreement m);
        string_of_bool (B.Eig.validity ~honest_values:(honest_values j values) m);
        string_of_int r.B.Sync_net.messages_sent;
        string_of_int r.B.Sync_net.messages_dropped;
      ]
  in
  row "fault-free" None "[]";
  row "faulty" (Some (B.Faults.plan schedule)) (B.Faults.schedule_to_string schedule);
  B.Tab.print tab
