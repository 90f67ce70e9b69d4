(* Reference implementations kept as test oracles: the code lib/ ran before
   faster versions replaced it. The agreement suites in test_crypto.ml and
   test_async_mediator.ml check the library against them. *)

module B = Beyond_nash
module A = B.Async_net

(* {1 GF(p) arithmetic and Berlekamp–Welch} *)

module Crypto = struct
  let p = B.Field.p
  let mul a b = a * b mod p

  let rec pow x e =
    if e = 0 then 1
    else begin
      let half = pow x (e / 2) in
      let sq = mul half half in
      if e land 1 = 1 then mul sq x else sq
    end

  let inv x = if x = 0 then raise Division_by_zero else pow x (p - 2)

  (* Gaussian elimination that builds a fresh row per step. *)
  let row_reduce m ncols =
    let rows = Array.length m in
    let pivots = ref [] in
    let rank = ref 0 in
    let col = ref 0 in
    while !rank < rows && !col < ncols do
      let pivot = ref (-1) in
      for r = !rank to rows - 1 do
        if !pivot < 0 && m.(r).(!col) <> 0 then pivot := r
      done;
      if !pivot >= 0 then begin
        let tmp = m.(!rank) in
        m.(!rank) <- m.(!pivot);
        m.(!pivot) <- tmp;
        let iv = inv m.(!rank).(!col) in
        m.(!rank) <- Array.map (mul iv) m.(!rank);
        for r = 0 to rows - 1 do
          if r <> !rank && m.(r).(!col) <> 0 then begin
            let f = m.(r).(!col) in
            m.(r) <- Array.mapi (fun j v -> B.Field.sub v (mul f m.(!rank).(j))) m.(r)
          end
        done;
        pivots := (!rank, !col) :: !pivots;
        incr rank
      end;
      incr col
    done;
    List.rev !pivots

  let solve a b =
    let rows = Array.length a in
    if rows = 0 then Some [||]
    else begin
      let ncols = Array.length a.(0) in
      let m =
        Array.init rows (fun r ->
            Array.append (Array.map B.Field.of_int a.(r)) [| B.Field.of_int b.(r) |])
      in
      let pivots = row_reduce m ncols in
      let consistent =
        Array.for_all
          (fun row ->
            let all_zero = ref true in
            for j = 0 to ncols - 1 do
              if row.(j) <> 0 then all_zero := false
            done;
            (not !all_zero) || row.(ncols) = 0)
          m
      in
      if not consistent then None
      else begin
        let x = Array.make ncols 0 in
        List.iter (fun (r, c) -> x.(c) <- m.(r).(ncols)) pivots;
        Some x
      end
    end

  (* Berlekamp–Welch with every row from [pow] and no fast path; with
     [max_errors = 0] it interpolates every share, so a repeated x raises
     [Invalid_argument]. *)
  let robust_reconstruct ~degree:d ~max_errors:e shares =
    let open B.Shamir in
    let n = List.length shares in
    if n < d + (2 * e) + 1 then None
    else if e = 0 then begin
      let f = B.Poly.interpolate (List.map (fun { x; y } -> (x, y)) shares) in
      if B.Poly.degree f <= d then Some (B.Poly.eval f 0) else None
    end
    else begin
      let nq = d + e + 1 in
      let nvars = e + nq in
      let row { x; y } =
        Array.init nvars (fun v ->
            if v < e then mul y (pow x v) else B.Field.neg (pow x (v - e)))
      in
      let rhs { x; y } = B.Field.neg (mul y (pow x e)) in
      let a = Array.of_list (List.map row shares) in
      let b = Array.of_list (List.map rhs shares) in
      match solve a b with
      | None -> None
      | Some sol ->
        let epoly = Array.init (e + 1) (fun j -> if j = e then 1 else sol.(j)) in
        let qpoly = Array.init nq (fun k -> sol.(e + k)) in
        let q, r = B.Poly.divmod qpoly epoly in
        if B.Poly.degree r >= 0 then None
        else begin
          let errors =
            List.length (List.filter (fun { x; y } -> B.Poly.eval q x <> y) shares)
          in
          if errors <= e && B.Poly.degree q <= d then Some (B.Poly.eval q 0) else None
        end
    end
end

(* {1 The list-queue asynchronous network} *)

module Async_list = struct
  (* Pending messages newest first; a scheduler returns the message. *)
  type 'm scheduler = 'm A.in_flight list -> 'm A.in_flight

  let fifo pending =
    List.fold_left
      (fun best (m : _ A.in_flight) -> if m.A.seq < best.A.seq then m else best)
      (List.hd pending) pending

  let random rng pending = List.nth pending (B.Prng.int rng (List.length pending))

  let delayer ~victim ~budget pending =
    let others = List.filter (fun (m : _ A.in_flight) -> m.A.sender <> victim) pending in
    if others <> [] && !budget > 0 then begin
      decr budget;
      fifo others
    end
    else fifo pending

  let same_group groups a b =
    match (List.find_opt (List.mem a) groups, List.find_opt (List.mem b) groups) with
    | Some ga, Some gb -> ga == gb
    | None, None -> a = b
    | _ -> false

  (* The schedule readings that scanned the event list per message. *)
  let async_scheduler schedule =
    let starved (m : _ A.in_flight) =
      List.exists
        (function
          | B.Faults.Delay { src; dst; _ } -> src = m.A.sender && dst = m.A.dest
          | B.Faults.Partition { groups; _ } -> not (same_group groups m.A.sender m.A.dest)
          | _ -> false)
        schedule
    in
    fun pending ->
      match List.filter (fun m -> not (starved m)) pending with
      | [] -> fifo pending
      | fresh -> fifo fresh

  let async_plan ?corrupt schedule =
    let dup_used = ref [] in
    let has p = List.exists p schedule in
    fun ~step:_ (m : _ A.in_flight) ->
      let src = m.A.sender and dst = m.A.dest in
      if has (function B.Faults.Crash { proc; _ } -> proc = src | _ -> false) then A.Drop
      else if has (function B.Faults.Drop { src = s; dst = d; _ } -> s = src && d = dst | _ -> false)
      then A.Drop
      else if
        has (function B.Faults.Corrupt { src = s; dst = d; _ } -> s = src && d = dst | _ -> false)
      then match corrupt with None -> A.Deliver | Some f -> A.Replace (f ~src ~dst m.A.payload)
      else if
        (not (List.mem (src, dst) !dup_used))
        && has (function
             | B.Faults.Duplicate { src = s; dst = d; _ } -> s = src && d = dst
             | _ -> false)
      then begin
        dup_used := (src, dst) :: !dup_used;
        A.Duplicate
      end
      else A.Deliver

  (* Each delivery re-filters the whole pending list. *)
  let run ?(max_steps = 100_000) ?faults ~n ~(scheduler : 'm scheduler) (process : ('s, 'm) A.process)
      =
    let seq = ref 0 in
    let pending = ref [] in
    let post sender (dest, payload) =
      if dest < 0 || dest >= n then invalid_arg "Async_net.run: destination out of range";
      pending := { A.sender; dest; payload; seq = !seq } :: !pending;
      incr seq
    in
    let states =
      Array.init n (fun me ->
          let state, outgoing = process.A.init me in
          List.iter (post me) outgoing;
          state)
    in
    let steps = ref 0 in
    let dropped = ref 0 in
    let all_decided () = Array.for_all (fun s -> process.A.decided s <> None) states in
    while (not (all_decided ())) && !pending <> [] && !steps < max_steps do
      let m = scheduler !pending in
      pending := List.filter (fun (m' : _ A.in_flight) -> m'.A.seq <> m.A.seq) !pending;
      let verdict = match faults with None -> A.Deliver | Some f -> f ~step:!steps m in
      (match verdict with
      | A.Drop -> incr dropped
      | (A.Deliver | A.Duplicate | A.Replace _) as v ->
        (match v with A.Duplicate -> post m.A.sender (m.A.dest, m.A.payload) | _ -> ());
        let payload = match v with A.Replace p -> p | _ -> m.A.payload in
        let state, outgoing =
          process.A.on_message ~me:m.A.dest states.(m.A.dest) ~sender:m.A.sender payload
        in
        states.(m.A.dest) <- state;
        List.iter (post m.A.dest) outgoing);
      incr steps
    done;
    {
      A.decisions = Array.map process.A.decided states;
      steps = !steps;
      undelivered = List.length !pending;
      dropped = !dropped;
    }
end
