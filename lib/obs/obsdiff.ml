(* Regression differ for the metrics/bench JSON artifacts, the engine
   behind [bin/obsdiff.exe]. Two modes, auto-detected from the files'
   "schema" member:

   - bench ([beyond-nash-bench/N]): Volatile timing. Microbench
     [ns_per_run] and wallclock [seconds] rows are compared as a
     new/ref ratio against a threshold (default 2x); only slowdowns
     fail, speedups pass. v1 files (no quantile columns) read fine —
     the extra v2 columns are informational.
   - metrics ([beyond-nash-metrics/N]): the determinism contract. Det
     ["counters"] and Det ["sketches"] must be bitwise identical;
     volatile sections, histograms and gc are informational and
     ignored.

   The verdict renders as a human table or as JSON (schema [obsdiff/1])
   so CI can archive it. No dependencies beyond [Obs.Json]. *)

module J = Obs.Json

type status = Pass | Fail | Missing

type check = {
  cname : string;
  status : status;
  ratio : float option;  (* new/ref, timing rows only *)
  detail : string;
}

type report = {
  kind : string;  (* "bench" | "metrics" *)
  threshold : float;
  checks : check list;
  failures : int;
}

let status_str = function Pass -> "ok" | Fail -> "fail" | Missing -> "missing"
let ok r = r.failures = 0

(* {1 JSON accessors} *)

let num = function J.Num f -> Some f | _ -> None
let str = function J.Str s -> Some s | _ -> None
let mem_num k v = Option.bind (J.member k v) num
let mem_str k v = Option.bind (J.member k v) str
let mem_arr k v = match J.member k v with Some (J.Arr l) -> l | _ -> []

(* {1 Row selection}

   [--rows] specs match by substring, so CI can name a row without the
   ["beyond_nash "] prefix or a wallclock ["[mode]"] suffix. An empty
   spec list selects everything. *)

let contains ~sub s =
  let ls = String.length sub and ln = String.length s in
  let rec scan i = i + ls <= ln && (String.sub s i ls = sub || scan (i + 1)) in
  ls = 0 || scan 0

let selected specs name = specs = [] || List.exists (fun sub -> contains ~sub name) specs

(* {1 Bench mode} *)

(* Every timing row normalized to (key, ns): microbench rows keyed by
   name, wallclock rows by ["name [mode]"] with seconds scaled to ns. *)
let bench_rows v =
  List.filter_map
    (fun r ->
      match (mem_str "name" r, mem_num "ns_per_run" r) with
      | Some n, Some ns -> Some (n, ns)
      | _ -> None)
    (mem_arr "microbench" v)
  @ List.filter_map
      (fun r ->
        match (mem_str "name" r, mem_str "mode" r, mem_num "seconds" r) with
        | Some n, Some m, Some s -> Some (Printf.sprintf "%s [%s]" n m, s *. 1e9)
        | _ -> None)
      (mem_arr "wallclock" v)

let diff_bench ~threshold ~rows ref_v new_v =
  let rref = bench_rows ref_v and rnew = bench_rows new_v in
  let checks = ref [] in
  let push c = checks := c :: !checks in
  List.iter
    (fun (name, vref) ->
      if selected rows name then
        match List.assoc_opt name rnew with
        | None ->
          (* Row sets may drift between releases; a vanished row only
             fails when the caller asked for it by name. *)
          if rows <> [] then
            push { cname = name; status = Missing; ratio = None; detail = "row missing from NEW" }
        | Some vnew ->
          let ratio = if vref > 0.0 then vnew /. vref else if vnew > 0.0 then infinity else 1.0 in
          let detail = Printf.sprintf "%.0f -> %.0f ns (x%.3f)" vref vnew ratio in
          let status = if ratio > threshold then Fail else Pass in
          push { cname = name; status; ratio = Some ratio; detail })
    rref;
  List.iter
    (fun sub ->
      if not (List.exists (fun (n, _) -> contains ~sub n) rref) then
        push { cname = sub; status = Missing; ratio = None; detail = "row missing from REF" })
    rows;
  List.rev !checks

(* {1 Metrics mode} *)

let counters_of v =
  match J.member "counters" v with
  | Some (J.Obj kvs) ->
    List.filter_map (fun (k, x) -> Option.map (fun f -> (k, int_of_float f)) (num x)) kvs
  | _ -> []

(* Det sketches as (name, (count, cells)). [None] when the section is
   absent (a v1 metrics file), which skips the sketch comparison. *)
let sketches_of v =
  match J.member "sketches" v with
  | Some (J.Obj kvs) ->
    Some
      (List.filter_map
         (fun (k, x) ->
           match (mem_num "count" x, J.member "cells" x) with
           | Some n, Some (J.Arr cs) ->
             let cells =
               List.filter_map
                 (function
                   | J.Arr [ J.Num b; J.Num c ] -> Some (int_of_float b, int_of_float c)
                   | _ -> None)
                 cs
             in
             Some (k, (int_of_float n, cells))
           | _ -> None)
         kvs)
  | _ -> None

let diff_metrics ~rows ref_v new_v =
  let checks = ref [] in
  let push c = checks := c :: !checks in
  let names l r = List.sort_uniq compare (List.map fst l @ List.map fst r) in
  let compare_section section eq show lref lnew =
    List.iter
      (fun name ->
        let cname = Printf.sprintf "%s:%s" section name in
        if selected rows name then
          match (List.assoc_opt name lref, List.assoc_opt name lnew) with
          | Some a, Some b when eq a b ->
            push { cname; status = Pass; ratio = None; detail = show a }
          | Some a, Some b ->
            push
              { cname; status = Fail; ratio = None;
                detail = Printf.sprintf "%s -> %s" (show a) (show b) }
          | Some _, None ->
            push { cname; status = Missing; ratio = None; detail = "missing from NEW" }
          | None, Some _ ->
            push { cname; status = Missing; ratio = None; detail = "missing from REF" }
          | None, None -> ())
      (names lref lnew)
  in
  compare_section "counter" ( = ) string_of_int (counters_of ref_v) (counters_of new_v);
  (match (sketches_of ref_v, sketches_of new_v) with
  | Some sref, Some snew ->
    compare_section "sketch" ( = )
      (fun (n, cells) -> Printf.sprintf "n=%d cells=%d" n (List.length cells))
      sref snew
  | _ -> ());
  List.rev !checks

(* {1 Entry point} *)

let kind_of v =
  match mem_str "schema" v with
  | Some s when String.starts_with ~prefix:"beyond-nash-bench" s -> Some "bench"
  | Some s when String.starts_with ~prefix:"beyond-nash-metrics" s -> Some "metrics"
  | _ -> None

let diff ?(threshold = 2.0) ?(rows = []) ref_s new_s =
  match (J.parse ref_s, J.parse new_s) with
  | None, _ -> Error "REF is not valid JSON"
  | _, None -> Error "NEW is not valid JSON"
  | Some ref_v, Some new_v -> (
    match (kind_of ref_v, kind_of new_v) with
    | Some a, Some b when a = b ->
      let checks =
        if a = "bench" then diff_bench ~threshold ~rows ref_v new_v
        else diff_metrics ~rows ref_v new_v
      in
      Ok
        { kind = a; threshold; checks;
          failures = List.length (List.filter (fun c -> c.status <> Pass) checks) }
    | Some a, Some b -> Error (Printf.sprintf "mixed artifact kinds: REF is %s, NEW is %s" a b)
    | None, _ -> Error "REF: unrecognized schema (want beyond-nash-bench/* or beyond-nash-metrics/*)"
    | _, None -> Error "NEW: unrecognized schema (want beyond-nash-bench/* or beyond-nash-metrics/*)")

(* {1 Rendering} *)

let render ~ref_name ~new_name r =
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "obsdiff [%s] %s vs %s (threshold x%.2f)\n" r.kind ref_name new_name r.threshold;
  List.iter
    (fun c ->
      if c.status <> Pass then p "  %-7s %-52s %s\n" (status_str c.status) c.cname c.detail)
    r.checks;
  let passes = List.length r.checks - r.failures in
  p "%d checks: %d ok, %d failed -> %s\n" (List.length r.checks) passes r.failures
    (if ok r then "PASS" else "FAIL");
  Buffer.contents buf

let verdict_json ~ref_name ~new_name r =
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n  \"schema\": \"obsdiff/1\",\n";
  p "  \"kind\": \"%s\",\n" r.kind;
  p "  \"ref\": \"%s\",\n" (Obs.json_escape ref_name);
  p "  \"new\": \"%s\",\n" (Obs.json_escape new_name);
  p "  \"threshold\": %g,\n" r.threshold;
  p "  \"checks\": [\n";
  List.iteri
    (fun i c ->
      p "    { \"name\": \"%s\", \"status\": \"%s\"%s, \"detail\": \"%s\" }%s\n"
        (Obs.json_escape c.cname) (status_str c.status)
        (match c.ratio with Some x -> Printf.sprintf ", \"ratio\": %.6f" x | None -> "")
        (Obs.json_escape c.detail)
        (if i = List.length r.checks - 1 then "" else ","))
    r.checks;
  p "  ],\n";
  p "  \"failures\": %d,\n" r.failures;
  p "  \"ok\": %b\n}\n" (ok r);
  Buffer.contents buf
