open Parsetree

module SMap = Map.Make (String)

(* {1 The effect lattice}

   A bitmask over seven primitive effect kinds. The lattice is the
   powerset ordered by inclusion; propagation along call edges is a
   monotone union, so the fixpoint below terminates. *)

let e_rand = 1 (* Stdlib Random — ambient, unseeded randomness *)
let e_clock = 2 (* wall-clock reads *)
let e_gc = 4 (* GC statistics / heap control *)
let e_io = 8 (* channel or console I/O, filesystem, environment *)
let e_par = 16 (* Domain/Atomic — raw parallelism *)
let e_mut = 32 (* writes to structure-level mutable state *)
let e_ba = 64 (* Bigarray stores *)

let kind_names =
  [ (e_rand, "rand"); (e_clock, "clock"); (e_gc, "gc"); (e_io, "io"); (e_par, "par");
    (e_mut, "global_mut"); (e_ba, "bigarray_write") ]

let names_of_mask m = List.filter_map (fun (bit, n) -> if m land bit <> 0 then Some n else None) kind_names

type table = { masks : int SMap.t; det_regions : string list }

let effects_of t id =
  match SMap.find_opt id t.masks with Some m -> names_of_mask m | None -> []

let has_global_mut t id =
  match SMap.find_opt id t.masks with Some m -> m land e_mut <> 0 | None -> false

(* {1 Seeds} *)

let io_printers =
  [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
    "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_float";
    "prerr_char"; "read_line"; "read_int"; "read_int_opt"; "read_float"; "read_float_opt";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "output_string"; "output_char";
    "output_byte"; "output_bytes"; "input_line"; "input_char"; "input_byte"; "close_in";
    "close_out"; "flush"; "flush_all"; "really_input_string"; "in_channel_length" ]

let seed_of_ident path =
  match path with
  | "Random" :: _ -> e_rand
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] -> e_clock
  | "Gc" :: _ -> e_gc
  | ("Domain" | "Atomic") :: _ -> e_par
  | [ p ] when List.mem p io_printers -> e_io
  | [ "Printf"; ("printf" | "eprintf" | "fprintf") ]
  | [ "Format"; ("printf" | "eprintf" | "fprintf" | "print_string" | "print_newline") ] ->
    e_io
  | ("In_channel" | "Out_channel") :: _ -> e_io
  | [ "Sys"; ("command" | "readdir" | "remove" | "rename" | "getenv" | "getenv_opt" | "file_exists" | "is_directory" | "getcwd" | "argv") ] ->
    e_io
  | "Bigarray" :: rest when
      (match List.rev rest with
      | ("set" | "unsafe_set" | "fill" | "blit") :: _ -> true
      | _ -> false) ->
    e_ba
  | _ -> 0

let mutator_path = function
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ]
  | [ "Array"; ("set" | "unsafe_set" | "fill" | "blit") ]
  | [ "Bytes"; ("set" | "unsafe_set" | "fill" | "blit") ]
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear") ]
  | [ "Stack"; ("push" | "pop" | "clear") ] ->
    true
  | _ -> false

let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel e
  | _ -> e

let ident_path e =
  match (peel e).pexp_desc with Pexp_ident { txt; _ } -> Some (Scope.path txt) | _ -> None

(* Does this expression denote structure-level state? An identifier that
   resolves (under the current scope and local bindings) to a def. *)
let resolves_to_def g ~file ~scope ~env e =
  match ident_path e with
  | Some p -> Callgraph.resolve g ~file ~scope ~env p
  | None -> None

(* {1 Det counters}

   [Obs.counter] defaults to [Det]; [Obs.sketch] to [Volatile]. A def
   whose body is such a creation with an (explicit or defaulted) [Det]
   kind is a Det instrument; a def that bumps one is a Det-counter
   region — its value is asserted identical across [-j] and reruns, so
   it must never sit downstream of randomness or the clock. *)

let obs_call last p =
  match List.rev p with
  | l :: rest -> l = last && List.mem "Obs" rest
  | [] -> false

let kind_arg args =
  List.find_map
    (fun (lbl, a) ->
      match lbl with
      | Asttypes.Labelled "kind" -> (
        match ident_path a with
        | Some p -> ( match List.rev p with k :: _ -> Some k | [] -> None)
        | None -> None)
      | _ -> None)
    args

let is_det_creation body =
  match (peel body).pexp_desc with
  | Pexp_apply (head, args) -> (
    match ident_path head with
    | Some p when obs_call "counter" p -> (
      match kind_arg args with None -> true | Some k -> k = "Det")
    | Some p when obs_call "sketch" p -> kind_arg args = Some "Det"
    | _ -> false)
  | _ -> false

let bump_ops = [ "incr"; "add"; "add2"; "observe_sk"; "observe" ]

(* {1 Inference} *)

let in_dir dir file =
  String.length file > String.length dir && String.sub file 0 (String.length dir) = dir

let obs_boundary file = in_dir "lib/obs/" file

(* The pool's worker registry is mutex-guarded synchronization, not data
   a caller's result can depend on: its [global_mut] stops at the call. *)
let pool_file file = file = "lib/util/pool.ml"

let kernel_dirs =
  [ "lib/game/"; "lib/lp/"; "lib/robust/"; "lib/byzantine/"; "lib/agents/"; "lib/scrip/";
    "lib/p2p/" ]

let kernel_file f = List.exists (fun d -> in_dir d f) kernel_dirs

let prng_file f = f = "lib/util/prng.ml"

let seed_def g det_ids (d : Callgraph.def) =
  let mask = ref 0 and det_bump = ref false in
  Scope.iter_expr ~env:Scope.empty
    (fun ~env e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> mask := !mask lor seed_of_ident (Scope.path txt)
      | Pexp_apply (head, args) -> (
        let arg_exprs = List.map snd args in
        match ident_path head with
        | Some [ (":=" | "incr" | "decr") ] -> (
          match arg_exprs with
          | target :: _
            when resolves_to_def g ~file:d.file ~scope:d.scope ~env target <> None ->
            mask := !mask lor e_mut
          | _ -> ())
        | Some p when mutator_path p -> (
          match arg_exprs with
          | target :: _
            when resolves_to_def g ~file:d.file ~scope:d.scope ~env target <> None ->
            mask := !mask lor e_mut
          | _ -> ())
        | Some p when List.exists (fun op -> obs_call op p) bump_ops ->
          List.iter
            (fun a ->
              match resolves_to_def g ~file:d.file ~scope:d.scope ~env a with
              | Some cdef when List.mem cdef.Callgraph.id det_ids -> det_bump := true
              | _ -> ())
            arg_exprs
        | _ -> ())
      | Pexp_setfield (target, _, _) ->
        if resolves_to_def g ~file:d.file ~scope:d.scope ~env target <> None then
          mask := !mask lor e_mut
      | _ -> ())
    d.body;
  (!mask, !det_bump)

let infer g =
  let defs = Callgraph.defs g in
  let det_ids =
    List.filter_map (fun (d : Callgraph.def) -> if is_det_creation d.body then Some d.id else None) defs
  in
  let seeds_and_bumps =
    List.map (fun (d : Callgraph.def) -> (d.id, seed_def g det_ids d)) defs
  in
  let seeds = List.fold_left (fun m (id, (s, _)) -> SMap.add id s m) SMap.empty seeds_and_bumps in
  let det_regions =
    List.filter_map (fun (id, (_, bump)) -> if bump then Some id else None) seeds_and_bumps
  in
  (* Fixpoint: union callee masks into callers until stable. Calls into
     lib/obs are an effect boundary — the instrumentation layer is
     exactly the code audited to leave program output untouched (one
     [Atomic.get] when off), so its internal clock/GC/atomic use must
     not poison every instrumented caller. Calls into the pool pass on
     every effect but [global_mut] ([pool_file]). *)
  let masks = ref seeds in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : Callgraph.edge) ->
        match Callgraph.find g e.callee with
        | Some callee when not (obs_boundary callee.Callgraph.file) ->
          let cm = Option.value ~default:0 (SMap.find_opt e.callee !masks) in
          let cm = if pool_file callee.Callgraph.file then cm land lnot e_mut else cm in
          let m = Option.value ~default:0 (SMap.find_opt e.caller !masks) in
          if m lor cm <> m then begin
            masks := SMap.add e.caller (m lor cm) !masks;
            changed := true
          end
        | _ -> ())
      (Callgraph.edges g)
  done;
  let table = { masks = !masks; det_regions } in
  let mask_of id = Option.value ~default:0 (SMap.find_opt id table.masks) in
  (* E001 — a call from solver/kernel code to a function that
     transitively reaches randomness or the clock. The Prng module is
     the sanctioned entry point (callers thread an explicit seed), and
     lib/obs is the audited instrumentation boundary. *)
  let e001 =
    List.filter_map
      (fun (e : Callgraph.edge) ->
        match Callgraph.find g e.caller with
        | Some caller when kernel_file caller.Callgraph.file -> (
          match Callgraph.find g e.callee with
          | Some callee
            when (not (prng_file callee.Callgraph.file))
                 && (not (obs_boundary callee.Callgraph.file))
                 && mask_of e.callee land (e_rand lor e_clock) <> 0 ->
            let kinds =
              names_of_mask (mask_of e.callee land (e_rand lor e_clock)) |> String.concat "/"
            in
            Some
              (Finding.v ~rule:"E001" ~file:caller.Callgraph.file ~line:e.eline ~col:e.ecol
                 (Printf.sprintf
                    "call to %s, which transitively reaches %s — solver/kernel code must take \
                     randomness via explicit Prng-threaded parameters and never read the clock"
                    callee.Callgraph.id kinds))
          | _ -> None)
        | _ -> None)
      (Callgraph.edges g)
  in
  (* E002 — a Det-counter region (a function bumping a Det counter or
     sketch, whose value CI asserts identical across -j and reruns)
     transitively reaching randomness or the clock. *)
  let e002 =
    List.filter_map
      (fun id ->
        let m = mask_of id land (e_rand lor e_clock) in
        if m = 0 then None
        else
          match Callgraph.find g id with
          | Some d ->
            Some
              (Finding.v ~rule:"E002" ~file:d.Callgraph.file ~line:d.Callgraph.line ~col:0
                 (Printf.sprintf
                    "%s bumps a Det counter but transitively reaches %s — Det counters are \
                     asserted bitwise-identical across -j and reruns"
                    d.Callgraph.id
                    (String.concat "/" (names_of_mask m))))
          | None -> None)
      det_regions
  in
  (table, e001 @ e002)

(* {1 Export} *)

let to_json g t =
  let b = Buffer.create 65536 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let defs = Callgraph.defs g in
  let rows =
    List.filter_map
      (fun (d : Callgraph.def) ->
        match SMap.find_opt d.id t.masks with
        | Some m when m <> 0 -> Some (d, m)
        | _ -> None)
      defs
  in
  let by_effect =
    List.filter_map
      (fun (bit, name) ->
        match List.length (List.filter (fun (_, m) -> m land bit <> 0) rows) with
        | 0 -> None
        | n -> Some (name, n))
      kind_names
  in
  p "{\n";
  p "  \"schema\": \"bn-effects/1\",\n";
  p "  \"summary\": {\n";
  p "    \"functions\": %d,\n" (List.length defs);
  p "    \"effectful\": %d,\n" (List.length rows);
  p "    \"det_regions\": %d,\n" (List.length t.det_regions);
  p "    \"by_effect\": {%s}\n"
    (String.concat ", " (List.map (fun (n, c) -> Printf.sprintf "\"%s\": %d" n c) by_effect));
  p "  },\n";
  p "  \"functions\": [";
  List.iteri
    (fun i ((d : Callgraph.def), m) ->
      p "%s\n    { \"id\": \"%s\", \"file\": \"%s\", \"line\": %d, \"effects\": [%s] }"
        (if i = 0 then "" else ",")
        (Callgraph.json_escape d.id) (Callgraph.json_escape d.file) d.line
        (String.concat ", " (List.map (fun n -> Printf.sprintf "\"%s\"" n) (names_of_mask m))))
    rows;
  p "\n  ]\n}\n";
  Buffer.contents b
