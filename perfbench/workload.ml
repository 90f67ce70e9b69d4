module Obs = Beyond_nash.Obs

type report = {
  rounds : Measure.outcome list list;
  latency : float array;
  correct : bool;
  speed : float;
  figures : (string * float) list;
}

let rows_named ?parent label =
  List.filter
    (fun (r : Obs.Profile.row) ->
      match (List.rev r.Obs.Profile.path, parent) with
      | l :: _, None -> l = label
      | l :: p :: _, Some parent -> l = label && p = parent
      | _ -> false)
    (Obs.Profile.rows ())

let busy_s label =
  List.fold_left (fun s (r : Obs.Profile.row) -> s +. r.Obs.Profile.incl_us) 0.0 (rows_named label)
  /. 1e6

let excl_s ?parent label =
  List.fold_left
    (fun s (r : Obs.Profile.row) -> s +. r.Obs.Profile.excl_us)
    0.0 (rows_named ?parent label)
  /. 1e6

let alloc_words label =
  match List.assoc_opt label (Obs.gc_snapshot ()) with
  | Some (words, _, _) -> float_of_int words
  | None -> 0.0

let traced f =
  Obs.reset ();
  Obs.set_tracing true;
  Obs.set_gc_probes true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_tracing false;
      Obs.set_gc_probes false)
    f

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let to_array s = Array.sub s.a 0 s.n
end
