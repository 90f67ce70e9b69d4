(* Bn_lint: the determinism/purity static-analysis pass.

   Per-rule fixtures (positive, negative, suppressed), the A001
   suppression audit, a pinned golden --json report for a small fixture
   tree, and — the point of the exercise — the assertion that the repo
   itself is lint-clean, which is what makes the determinism contract a
   property of every commit rather than of the golden tests that happen
   to run. *)

module L = Bn_lint.Lint
module F = Bn_lint.Finding

let lint path src = L.lint_source ~file:path src
let unsup fs = List.filter (fun (f : F.t) -> f.suppressed = None) fs
let rules fs = List.map (fun (f : F.t) -> f.rule) (unsup fs)

let check_rules msg expected fs = Alcotest.(check (list string)) msg expected (rules fs)

(* {1 D-rules} *)

let test_d001 () =
  let fs = lint "lib/game/jitter.ml" "let x () = Random.int 10\n" in
  check_rules "Random flagged" [ "D001" ] fs;
  let f = List.hd (unsup fs) in
  Alcotest.(check (pair int int)) "location" (1, 11) (f.line, f.col);
  check_rules "Stdlib.Random too" [ "D001" ]
    (lint "lib/game/jitter.ml" "let x () = Stdlib.Random.int 10\n");
  check_rules "module alias too" [ "D001" ] (lint "lib/game/jitter.ml" "module R = Random\n");
  check_rules "fine inside Prng" [] (lint "lib/util/prng.ml" "let x () = Random.int 10\n")

let test_d002 () =
  check_rules "wall clock flagged" [ "D002" ]
    (lint "lib/robust/t.ml" "let t () = Unix.gettimeofday ()\n");
  check_rules "Sys.time flagged" [ "D002" ] (lint "test/t.ml" "let t () = Sys.time ()\n");
  check_rules "bench may time" [] (lint "bench/main.ml" "let t () = Unix.gettimeofday ()\n")

let test_d003 () =
  check_rules "iter flagged" [ "D003" ]
    (lint "lib/game/t.ml" "let f t = Hashtbl.iter (fun _ _ -> ()) t\n");
  check_rules "fold flagged" [ "D003" ]
    (lint "bin/t.ml" "let f t = Hashtbl.fold (fun _ _ n -> n + 1) t 0\n");
  check_rules "membership fine" [] (lint "lib/game/t.ml" "let f t = Hashtbl.mem t 3\n")

let test_d004_d005 () =
  check_rules "Marshal flagged" [ "D004" ]
    (lint "lib/game/t.ml" "let f x = Marshal.to_string x []\n");
  check_rules "Obj.magic flagged" [ "D005" ] (lint "lib/game/t.ml" "let f x = Obj.magic x\n");
  check_rules "Obj.repr alone is not D005" [] (lint "lib/game/t.ml" "let f x = Obj.repr x\n")

(* {1 P-rules} *)

let test_p001 () =
  check_rules "toplevel Hashtbl.create" [ "P001" ]
    (lint "lib/game/t.ml" "let cache = Hashtbl.create 16\n");
  check_rules "toplevel ref" [ "P001" ] (lint "lib/game/t.ml" "let count = ref 0\n");
  check_rules "toplevel ref inside submodule" [ "P001" ]
    (lint "lib/game/t.ml" "module M = struct let count = ref 0 end\n");
  check_rules "local state is fine" []
    (lint "lib/game/t.ml" "let f () = let c = ref 0 in incr c; !c\n");
  check_rules "lib/util may hold state" [] (lint "lib/util/t.ml" "let cache = Hashtbl.create 16\n");
  check_rules "lib/obs may hold state" [] (lint "lib/obs/t.ml" "let count = ref 0\n")

let test_p002 () =
  check_rules "Atomic flagged" [ "P002" ] (lint "lib/game/t.ml" "let f x = Atomic.make x\n");
  check_rules "Domain.spawn and join both flagged" [ "P002"; "P002" ]
    (lint "lib/mediator/t.ml" "let f g = Domain.join (Domain.spawn g)\n");
  check_rules "Pool is the site" [] (lint "lib/util/pool.ml" "let f g = Domain.spawn g\n");
  check_rules "Obs is the site" [] (lint "lib/obs/obs.ml" "let t = Atomic.make false\n")

let test_p004 () =
  check_rules "Bigarray value use flagged" [ "P004" ]
    (lint "lib/robust/t.ml" "let f a = Bigarray.Array1.get a 0\n");
  check_rules "Bigarray module alias flagged" [ "P004" ]
    (lint "lib/dist_sim/t.ml" "module B = Bigarray\n");
  check_rules "Normal_form is a kernel site" []
    (lint "lib/game/normal_form.ml" "let f a = Bigarray.Array1.get a 0\n");
  check_rules "Simplex is a kernel site" []
    (lint "lib/lp/simplex.ml" "let f a = Bigarray.Array1.dim a\n");
  check_rules "SoA store is a kernel site" []
    (lint "lib/agents/soa.ml" "let f a = Bigarray.Array1.get a 0\n");
  check_rules "SoA simulator kernels are kernel sites" []
    (lint "lib/scrip/scrip_soa.ml" "let f a = Bigarray.Array1.get a 0\n"
     @ lint "lib/p2p/gnutella_soa.ml" "let f a = Bigarray.Array1.dim a\n");
  check_rules "experiments must go through the Soa API" [ "P004" ]
    (lint "lib/experiments/t.ml" "let f a = Bigarray.Array1.get a 0\n");
  check_rules "drivers may use Bigarray" []
    (lint "bin/t.ml" "let f a = Bigarray.Array1.get a 0\n")

let test_p005 () =
  check_rules "Gc.quick_stat flagged in lib" [ "P005" ]
    (lint "lib/game/t.ml" "let s () = Gc.quick_stat ()\n");
  check_rules "Gc.compact flagged in bin" [ "P005" ] (lint "bin/t.ml" "let f () = Gc.compact ()\n");
  check_rules "module alias flagged" [ "P005" ] (lint "lib/scrip/t.ml" "module G = Gc\n");
  check_rules "Obs is the probe site" []
    (lint "lib/obs/obs.ml" "let s () = Gc.quick_stat ()\n");
  check_rules "allow suppresses with reason" []
    (lint "lib/game/t.ml"
       "[@@@lint.allow \"P005\" \"heap sizing experiment, reviewed\"]\nlet f () = Gc.compact ()\n")

let test_p003 () =
  check_rules "print_endline flagged in lib" [ "P003" ]
    (lint "lib/game/t.ml" "let f () = print_endline \"hi\"\n");
  check_rules "Printf.printf flagged in lib" [ "P003" ]
    (lint "lib/game/t.ml" "let f () = Printf.printf \"%d\" 3\n");
  check_rules "Out is the site" []
    (lint "lib/util/out.ml" "let print_string s = Stdlib.print_string s\n");
  check_rules "drivers own stdout" [] (lint "bin/t.ml" "let f () = print_endline \"hi\"\n");
  check_rules "Out-qualified is the sanctioned path" []
    (lint "lib/game/t.ml" "let f () = Bn_util.Out.print_endline \"hi\"\n");
  check_rules "sprintf is pure" []
    (lint "lib/game/t.ml" "let f n = Printf.sprintf \"%d\" n\n")

(* {1 H-rules} *)

let test_h002 () =
  check_rules "open List flagged" [ "H002" ] (lint "lib/game/t.ml" "open List\nlet f = map\n");
  check_rules "open in .mli flagged" [ "H002" ] (lint "lib/game/t.mli" "open Printf\n");
  check_rules "local open is scoped enough" []
    (lint "lib/game/t.ml" "let f x = List.(map succ x)\n");
  check_rules "project opens are fine" [] (lint "lib/game/t.ml" "open Bn_util\nlet x = 1\n")

let test_e000 () =
  check_rules "garbage yields E000" [ "E000" ] (lint "lib/game/t.ml" "let let let\n")

(* {1 Suppression and the A001 audit} *)

let test_allow_suppresses () =
  let fs =
    lint "lib/game/t.ml"
      "[@@@lint.allow \"D003\" \"reviewed: sorted before escaping\"]\n\
       let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n"
  in
  check_rules "nothing unsuppressed" [] fs;
  match List.find_opt (fun (f : F.t) -> f.suppressed <> None) fs with
  | Some f ->
    Alcotest.(check string) "rule survives in report" "D003" f.rule;
    Alcotest.(check (option string)) "reason recorded"
      (Some "reviewed: sorted before escaping") f.suppressed
  | None -> Alcotest.fail "suppressed finding missing from report"

let test_allow_missing_reason () =
  let fs = lint "lib/game/t.ml" "[@@@lint.allow \"D003\"]\nlet f t = Hashtbl.fold (fun k _ a -> k :: a) t []\n" in
  (* The invalid allow suppresses nothing: both the D003 and the audit
     finding surface. *)
  check_rules "D003 stays + audit fires" [ "A001"; "D003" ] fs

let test_allow_unknown_rule () =
  check_rules "unknown rule audited" [ "A001" ]
    (lint "lib/game/t.ml" "[@@@lint.allow \"Z999\" \"whatever\"]\nlet x = 1\n")

let test_allow_unused () =
  check_rules "unused allow audited" [ "A001" ]
    (lint "lib/game/t.ml" "[@@@lint.allow \"D001\" \"stale reason\"]\nlet x = 1\n")

(* {1 Golden --json report over a fixture tree} *)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let with_fixture_tree f =
  let dir = Filename.temp_file "bn_lint_fixture" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let mkdir d = Unix.mkdir (Filename.concat dir d) 0o755 in
  mkdir "lib";
  mkdir "lib/demo";
  let w rel content = write_file (Filename.concat dir rel) content in
  w "dune-project" "(lang dune 3.0)\n";
  w "lib/demo/dune" "(library\n (name bn_obs)\n (libraries bn_util))\n";
  w "lib/demo/bad.ml" "let seed () = Random.self_init ()\nlet table = Hashtbl.create 8\n";
  w "lib/demo/ok.ml"
    "[@@@lint.allow \"D003\" \"reviewed: the result is sorted before it escapes\"]\n\n\
     let pairs t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])\n";
  w "lib/demo/ok.mli" "val pairs : ('a, 'b) Hashtbl.t -> ('a * 'b) list\n";
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let golden_json =
  {json|{
  "schema": "bn-lint/1",
  "summary": {
    "files": 3,
    "dune_files": 1,
    "unsuppressed": 4,
    "suppressed": 1,
    "by_rule": {"D001": 1, "P001": 1, "H001": 1, "H003": 1}
  },
  "findings": [
    { "rule": "H001", "severity": "warning", "file": "lib/demo/bad.ml", "line": 1, "col": 0, "message": "lib/ module without an .mli: exports are unreviewed", "allowed": false },
    { "rule": "D001", "severity": "error", "file": "lib/demo/bad.ml", "line": 1, "col": 14, "message": "use of Random.self_init: randomness must come from an explicit Bn_util.Prng seed", "allowed": false },
    { "rule": "P001", "severity": "error", "file": "lib/demo/bad.ml", "line": 2, "col": 0, "message": "top-level mutable state (Hashtbl.create) outside lib/util and lib/obs — thread it or use an Obs counter", "allowed": false },
    { "rule": "H003", "severity": "error", "file": "lib/demo/dune", "line": 2, "col": 0, "message": "bn_obs must sit below every in-tree library but depends on bn_util", "allowed": false },
    { "rule": "D003", "severity": "error", "file": "lib/demo/ok.ml", "line": 3, "col": 33, "message": "Hashtbl.fold traverses in bucket order; use Bn_util.Tbl.sorted_bindings (or keep the result from escaping)", "allowed": true, "reason": "reviewed: the result is sorted before it escapes" }
  ]
}
|json}

let test_golden_json () =
  with_fixture_tree (fun dir ->
      let report = L.run ~root:dir in
      Alcotest.(check string) "pinned --json report" golden_json (L.to_json report);
      Alcotest.(check int) "exit-worthy findings" 4 (List.length (L.unsuppressed report)))

(* Deleting the suppression attribute resurfaces the finding: the allow
   set is load-bearing, not decorative. *)
let test_deleted_suppression_resurfaces () =
  with_fixture_tree (fun dir ->
      write_file
        (Filename.concat dir "lib/demo/ok.ml")
        "let pairs t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])\n";
      let report = L.run ~root:dir in
      let d003 =
        List.filter (fun (f : F.t) -> f.rule = "D003") (L.unsuppressed report)
      in
      match d003 with
      | [ f ] ->
        Alcotest.(check string) "right file" "lib/demo/ok.ml" f.file;
        Alcotest.(check int) "right line" 1 f.line
      | _ -> Alcotest.fail "expected exactly one unsuppressed D003")

(* {1 Whole-program analyses: effects and races over a fixture tree}

   A miniature repo exercising the cross-file machinery end to end:
   dune library wrappers, module aliases, the Prng/Pool/Soa/Obs
   conventions, and one planted instance of each E/R rule next to its
   clean twin. *)

let with_wp_tree ?(patch = fun _ -> ()) f =
  let dir = Filename.temp_file "bn_lint_wp" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let mkdir d = Unix.mkdir (Filename.concat dir d) 0o755 in
  List.iter mkdir [ "lib"; "lib/util"; "lib/obs"; "lib/agents"; "lib/game" ];
  let w rel content = write_file (Filename.concat dir rel) content in
  w "dune-project" "(lang dune 3.0)\n";
  w "lib/util/dune" "(library\n (name bn_util))\n";
  w "lib/obs/dune" "(library\n (name bn_obs))\n";
  w "lib/agents/dune" "(library\n (name bn_agents)\n (libraries bn_util))\n";
  w "lib/game/dune" "(library\n (name bn_game)\n (libraries bn_util bn_obs bn_agents))\n";
  w "lib/util/pool.ml"
    "let map_array f a = Array.map f a\nlet iter_grid ~shards f = for s = 0 to shards - 1 do f s done\n";
  w "lib/util/pool.mli"
    "val map_array : ('a -> 'b) -> 'a array -> 'b array\nval iter_grid : shards:int -> (int -> unit) -> unit\n";
  w "lib/util/prng.ml"
    "type t = { mutable s : int }\nlet create seed = { s = seed }\nlet split t i = { s = t.s + i }\nlet int t n = t.s mod n\n";
  w "lib/util/prng.mli"
    "type t\nval create : int -> t\nval split : t -> int -> t\nval int : t -> int -> int\n";
  w "lib/util/helpers.ml"
    "[@@@lint.allow \"D002\" \"fixture: the planted clock source the E rules must catch\"]\n\n\
     let now () = Unix.gettimeofday ()\n\
     let tally = Hashtbl.create 16\n\
     let bump k = Hashtbl.replace tally k 1\n\
     let pure x = x + 1\n";
  w "lib/util/helpers.mli"
    "val now : unit -> float\nval tally : (string, int) Hashtbl.t\nval bump : string -> unit\nval pure : int -> int\n";
  w "lib/obs/obs.ml"
    "type t = { mutable n : int }\n\
     let counter ?(kind = `Det) name = ignore kind; ignore name; { n = 0 }\n\
     let incr c = c.n <- c.n + 1\n";
  w "lib/obs/obs.mli"
    "type t\nval counter : ?kind:[ `Det | `Volatile ] -> string -> t\nval incr : t -> unit\n";
  w "lib/agents/soa.ml"
    "module F64 = struct\n\
    \  type t = float array\n\
    \  let set (c : t) i v = c.(i) <- v\n\
    \  let fill (c : t) v = Array.fill c 0 (Array.length c) v\n\
     end\n";
  w "lib/agents/soa.mli"
    "module F64 : sig\n\
    \  type t = float array\n\
    \  val set : t -> int -> float -> unit\n\
    \  val fill : t -> float -> unit\n\
     end\n";
  w "lib/game/kern.ml"
    "let c_steps = Obs.counter \"steps\"\n\n\
     let region x =\n\
    \  Obs.incr c_steps;\n\
    \  let t = Helpers.now () in\n\
    \  x +. t\n\n\
     let clean y = Helpers.pure y\n";
  w "lib/game/kern.mli" "val c_steps : Obs.t\nval region : float -> float\nval clean : int -> int\n";
  w "lib/game/sim.ml"
    "let step col base out shards =\n\
    \  Pool.iter_grid ~shards (fun s ->\n\
    \      let r = Prng.split base s in\n\
    \      let _ = Prng.int r 10 in\n\
    \      let _ = Prng.int base 10 in\n\
    \      Soa.F64.set col s 1.0;\n\
    \      Soa.F64.set col 0 2.0;\n\
    \      Helpers.bump \"x\";\n\
    \      out.(s) <- float_of_int s;\n\
    \      out.(0) <- 0.0)\n";
  w "lib/game/sim.mli" "val step : Soa.F64.t -> Prng.t -> float array -> int -> unit\n";
  patch (fun rel content -> w rel content);
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let findings_of_rule rule report =
  List.filter (fun (f : F.t) -> f.rule = rule) (L.unsuppressed report)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_effects_rules () =
  with_wp_tree (fun dir ->
      let report = L.run ~root:dir in
      (match findings_of_rule "E001" report with
      | [ f ] ->
        Alcotest.(check string) "E001 fires in the kernel caller" "lib/game/kern.ml" f.file;
        Alcotest.(check bool) "E001 names the clock helper" true
          (contains f.message "lib/util/helpers.ml#now")
      | fs -> Alcotest.fail (Printf.sprintf "expected exactly one E001, got %d" (List.length fs)));
      match findings_of_rule "E002" report with
      | [ f ] ->
        Alcotest.(check string) "E002 fires on the Det region" "lib/game/kern.ml" f.file;
        Alcotest.(check bool) "E002 names the region" true
          (contains f.message "kern.ml#region")
      | fs -> Alcotest.fail (Printf.sprintf "expected exactly one E002, got %d" (List.length fs)))

let test_race_rules () =
  with_wp_tree (fun dir ->
      let report = L.run ~root:dir in
      let r001 = findings_of_rule "R001" report in
      (* Exactly two: the constant-index array write and the transitive
         global_mut helper; the [out.(s)] write is chunk-derived. *)
      Alcotest.(check int) "two R001" 2 (List.length r001);
      Alcotest.(check bool) "transitive helper named" true
        (List.exists
           (fun (f : F.t) -> contains f.message "helpers.ml#bump")
           r001);
      (match findings_of_rule "R002" report with
      | [ f ] ->
        Alcotest.(check int) "R002 on the captured draw, not the split one" 5 f.line
      | fs -> Alcotest.fail (Printf.sprintf "expected exactly one R002, got %d" (List.length fs)));
      match findings_of_rule "R003" report with
      | [ f ] -> Alcotest.(check int) "R003 on the constant-index column write" 7 f.line
      | fs -> Alcotest.fail (Printf.sprintf "expected exactly one R003, got %d" (List.length fs)))

let test_race_allow () =
  (* E/R findings merge into their file's batch before allows apply, so
     the same audited [@@@lint.allow] machinery covers them. *)
  with_wp_tree
    ~patch:(fun w ->
      w "lib/game/sim.ml"
        "[@@@lint.allow \"R001\" \"fixture: reduction reviewed, single writer per key\"]\n\
         [@@@lint.allow \"R002\" \"fixture: draw order intentionally shared\"]\n\
         [@@@lint.allow \"R003\" \"fixture: constant slot owned by shard 0\"]\n\n\
         let step col base out shards =\n\
        \  Pool.iter_grid ~shards (fun s ->\n\
        \      let r = Prng.split base s in\n\
        \      let _ = Prng.int r 10 in\n\
        \      let _ = Prng.int base 10 in\n\
        \      Soa.F64.set col s 1.0;\n\
        \      Soa.F64.set col 0 2.0;\n\
        \      Helpers.bump \"x\";\n\
        \      out.(s) <- float_of_int s;\n\
        \      out.(0) <- 0.0)\n")
    (fun dir ->
      let report = L.run ~root:dir in
      List.iter
        (fun rule ->
          Alcotest.(check int)
            (rule ^ " suppressed") 0
            (List.length (findings_of_rule rule report)))
        [ "R001"; "R002"; "R003"; "A001" ];
      let suppressed =
        List.filter
          (fun (f : F.t) -> f.suppressed <> None && f.file = "lib/game/sim.ml")
          report.findings
      in
      Alcotest.(check int) "all four race findings survive as audited" 4
        (List.length suppressed))

(* The pool's own state (its worker registry) is synchronization, so a
   helper that calls Pool.map_array does not inherit [global_mut] from it
   and may run inside a parallel closure; a helper's own shared write
   still fails, and so does the CI canary's captured-ref increment. *)
let test_pool_effect_boundary () =
  with_wp_tree
    ~patch:(fun w ->
      w "lib/util/pool.ml"
        "let calls = ref 0\n\
         let map_array f a = incr calls; Array.map f a\n\
         let iter_grid ~shards f = for s = 0 to shards - 1 do f s done\n";
      w "lib/game/nested.ml"
        "let inner xs = Pool.map_array (fun x -> x + 1) xs\n\
         let inner_and_bump xs = Helpers.bump \"y\"; inner xs\n\
         let outer shards = Pool.iter_grid ~shards (fun s -> ignore (inner [| s |]))\n\
         let leaky shards = Pool.iter_grid ~shards (fun s -> ignore (inner_and_bump [| s |]))\n";
      w "lib/game/nested.mli"
        "val inner : int array -> int array\n\
         val inner_and_bump : int array -> int array\n\
         val outer : int -> unit\n\
         val leaky : int -> unit\n";
      w "lib/util/canary.ml"
        "let shared_total = ref 0\n\
         let tally n = Pool.iter_grid ~shards:4 (fun s -> if s < n then incr shared_total)\n";
      w "lib/util/canary.mli" "val shared_total : int ref\nval tally : int -> unit\n")
    (fun dir ->
      let report = L.run ~root:dir in
      let r001_in file = List.filter (fun (f : F.t) -> f.file = file) (findings_of_rule "R001" report) in
      (match r001_in "lib/game/nested.ml" with
      | [ f ] ->
        Alcotest.(check int) "only the helper with its own write" 4 f.line;
        Alcotest.(check bool) "names that helper" true (contains f.message "nested.ml#inner_and_bump")
      | fs -> Alcotest.fail (Printf.sprintf "expected one R001 in nested.ml, got %d" (List.length fs)));
      (match r001_in "lib/util/canary.ml" with
      | [ f ] -> Alcotest.(check int) "canary's captured ref" 2 f.line
      | fs -> Alcotest.fail (Printf.sprintf "expected one R001 in canary.ml, got %d" (List.length fs)));
      let effects = L.effects_json report in
      Alcotest.(check bool) "the pool keeps its own global_mut" true
        (contains effects "\"id\": \"lib/util/pool.ml#map_array\", \"file\": \"lib/util/pool.ml\", \"line\": 2, \"effects\": [\"global_mut\"]");
      Alcotest.(check bool) "its caller does not inherit it" false
        (contains effects "lib/game/nested.ml#inner\""))

let test_wp_exports_stable () =
  with_wp_tree (fun dir ->
      let r1 = L.run ~root:dir and r2 = L.run ~root:dir in
      Alcotest.(check string) "callgraph byte-stable" (L.callgraph_json r1) (L.callgraph_json r2);
      Alcotest.(check string) "effects byte-stable" (L.effects_json r1) (L.effects_json r2);
      Alcotest.(check bool) "callgraph schema" true
        (contains (L.callgraph_json r1) "\"schema\": \"bn-callgraph/1\"");
      Alcotest.(check bool) "effects schema" true
        (contains (L.effects_json r1) "\"schema\": \"bn-effects/1\"");
      (* Cross-file resolution made it into the export: the kernel's call
         edge to the clock helper. *)
      Alcotest.(check bool) "edge resolved across files" true
        (contains (L.callgraph_json r1) "lib/util/helpers.ml#now"))

let test_invalid_root () =
  let missing = "/nonexistent/bn-lint-root" in
  Alcotest.check_raises "run raises" (L.Invalid_root missing) (fun () ->
      ignore (L.run ~root:missing));
  Alcotest.check_raises "parse_mls raises" (L.Invalid_root missing) (fun () ->
      ignore (L.parse_mls ~root:missing));
  (* The valid-root path still returns a report (exit-0 side of the
     driver contract). *)
  with_fixture_tree (fun dir -> ignore (L.run ~root:dir))

(* {1 The repo itself is lint-clean} *)

let test_repo_is_clean () =
  match L.find_root () with
  | None -> Alcotest.fail "no dune-project above the test runner"
  | Some root ->
    let report = L.run ~root in
    Alcotest.(check bool) "dune files checked" true (report.dune_files >= 15);
    Alcotest.(check bool) "scanned a real tree" true (report.files_scanned > 150);
    (match L.unsuppressed report with
    | [] -> ()
    | fs ->
      Alcotest.fail
        (String.concat "\n" ("repo has unsuppressed lint findings:" :: List.map F.to_string fs)));
    (* Every suppression is explicit and reasoned (A001 enforces the
       reason; this pins the audit trail shape). *)
    List.iter
      (fun (f : F.t) ->
        match f.suppressed with
        | Some reason -> Alcotest.(check bool) "reason non-empty" true (String.length reason > 0)
        | None -> ())
      report.findings

let suite =
  [
    Alcotest.test_case "D001 randomness" `Quick test_d001;
    Alcotest.test_case "D002 wall clock" `Quick test_d002;
    Alcotest.test_case "D003 hashtbl order" `Quick test_d003;
    Alcotest.test_case "D004/D005 marshal, magic" `Quick test_d004_d005;
    Alcotest.test_case "P001 top-level state" `Quick test_p001;
    Alcotest.test_case "P002 domain confinement" `Quick test_p002;
    Alcotest.test_case "P003 stdout discipline" `Quick test_p003;
    Alcotest.test_case "P004 Bigarray confinement" `Quick test_p004;
    Alcotest.test_case "P005 Gc confinement" `Quick test_p005;
    Alcotest.test_case "H002 shadowing opens" `Quick test_h002;
    Alcotest.test_case "E000 parse failure" `Quick test_e000;
    Alcotest.test_case "allow: suppresses with reason" `Quick test_allow_suppresses;
    Alcotest.test_case "allow: missing reason audited" `Quick test_allow_missing_reason;
    Alcotest.test_case "allow: unknown rule audited" `Quick test_allow_unknown_rule;
    Alcotest.test_case "allow: unused audited" `Quick test_allow_unused;
    Alcotest.test_case "E001/E002 effect inference" `Quick test_effects_rules;
    Alcotest.test_case "R001/R002/R003 race detection" `Quick test_race_rules;
    Alcotest.test_case "race findings are suppressible and audited" `Quick test_race_allow;
    Alcotest.test_case "Pool calls do not pass on global_mut" `Quick test_pool_effect_boundary;
    Alcotest.test_case "callgraph/effects exports byte-stable" `Quick test_wp_exports_stable;
    Alcotest.test_case "invalid --root raises" `Quick test_invalid_root;
    Alcotest.test_case "golden --json fixture report" `Quick test_golden_json;
    Alcotest.test_case "deleted suppression resurfaces" `Quick test_deleted_suppression_resurfaces;
    Alcotest.test_case "repo is lint-clean" `Quick test_repo_is_clean;
  ]
