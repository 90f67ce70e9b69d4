(* Reference implementations kept as test oracles: the code lib/ ran before
   faster versions replaced it. The agreement suites in test_crypto.ml,
   test_async_mediator.ml, test_soa.ml, test_util.ml and test_faults.ml
   check the library against them. *)

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

(* {1 The SoA exchange's closure replay, and the scrip step built on it} *)

module Soa = B.Soa

module Exchange = struct
  (* [Exchange.flush] as lib/ had it: a closure call per event, (src, dst)
     pairs in lexicographic order and posting order within, then every
     buffer cleared. Returns the number of events replayed. *)
  let flush (ex : Soa.Exchange.t) f =
    let shards = ex.Soa.Exchange.shards in
    let replayed = ref 0 in
    for src = 0 to shards - 1 do
      for dst = 0 to shards - 1 do
        let { Soa.Exchange.data; len } = ex.Soa.Exchange.buffers.((src * shards) + dst) in
        let i = ref 0 in
        while !i < len do
          f ~src ~dst
            (Int32.to_int (Soa.I32.get data !i))
            (Int32.to_int (Soa.I32.get data (!i + 1)));
          i := !i + 2
        done;
        replayed := !replayed + (len / 2)
      done
    done;
    Soa.Exchange.clear ex;
    !replayed
end

module Scrip_soa = struct
  module S = B.Scrip

  (* [Soa.shard_of] with its branch on the size boundary. *)
  let shard_of ~n ~shards i =
    let quot = n / shards and rem = n mod shards in
    let big = rem * (quot + 1) in
    if i < big then i / (quot + 1) else rem + ((i - big) / quot)

  (* [Scrip_soa.run] before its replay was inlined: the branching
     skip-self adjust and shard lookup, and the gates in the closure
     [Exchange.flush] calls per event. The columns are plain arrays and
     the draw runs serially over shards (each shard posts only to its own
     buffers, so their order is immaterial). Kinds are coded as in lib/:
     0 standard, 1 hoarder, 2 altruist. Also returns each step's request
     count, what the [scrip_soa.requests_per_step] sketch sees. *)
  let run ?(shards = 64) ~seed ~steps ~params ~kind_of ~money_per_agent () =
    let n = params.S.n in
    let part = Soa.partition ~n ~shards in
    let shards = Soa.shards part in
    let kind = Array.make n 0 and thresh = Array.make n 0 in
    let k_max = ref 1 in
    for i = 0 to n - 1 do
      match kind_of i with
      | S.Standard k ->
        thresh.(i) <- k;
        if k > !k_max then k_max := k
      | S.Hoarder -> kind.(i) <- 1
      | S.Altruist -> kind.(i) <- 2
    done;
    let k_max = !k_max in
    let total_scrip = int_of_float (money_per_agent *. float_of_int n) in
    let base_deal = total_scrip / n and extra = total_scrip mod n in
    let scrip = Array.init n (fun i -> base_deal + if i < extra then 1 else 0) in
    let util = Array.make n 0.0 in
    let ex = Soa.Exchange.create ~shards in
    let base = B.Prng.create seed in
    let requests = ref 0 and satisfied = ref 0 and starved = ref 0 and unserved = ref 0 in
    let cross = ref 0 and per_step = ref [] in
    for step = 0 to steps - 1 do
      for s = 0 to shards - 1 do
        let rng = B.Prng.split base ((step * shards) + s) in
        let lo, hi = Soa.bounds part s in
        for _ = 1 to hi - lo do
          let c = B.Prng.int rng n in
          if kind.(c) <> 1 then begin
            let v = B.Prng.int rng (n - 1) in
            let v = if v >= c then v + 1 else v in
            let dst = shard_of ~n ~shards v in
            if dst <> s then incr cross;
            Soa.Exchange.post ex ~src:s ~dst c v
          end
        done
      done;
      let willing v = if kind.(v) = 0 then scrip.(v) < thresh.(v) else true in
      let replayed =
        Exchange.flush ex (fun ~src:_ ~dst:_ c v ->
            incr requests;
            if scrip.(c) < 1 then incr starved
            else if willing v then begin
              util.(c) <- util.(c) +. params.S.benefit;
              util.(v) <- util.(v) -. params.S.cost;
              if kind.(v) <> 2 then begin
                scrip.(c) <- scrip.(c) - 1;
                scrip.(v) <- scrip.(v) + 1
              end;
              incr satisfied
            end
            else incr unserved)
      in
      per_step := replayed :: !per_step
    done;
    let dist = Array.make (k_max + 2) 0 in
    let kind_sum = [| 0.0; 0.0; 0.0 |] and kind_n = [| 0; 0; 0 |] in
    for i = 0 to n - 1 do
      let j = if scrip.(i) > k_max then k_max + 1 else scrip.(i) in
      dist.(j) <- dist.(j) + 1;
      kind_sum.(kind.(i)) <- kind_sum.(kind.(i)) +. util.(i);
      kind_n.(kind.(i)) <- kind_n.(kind.(i)) + 1
    done;
    let total = Array.fold_left ( + ) 0 scrip in
    ( {
        B.Scrip_soa.n;
        shards;
        steps;
        requests = !requests;
        satisfied = !satisfied;
        starved = !starved;
        unserved = !unserved;
        cross_shard = !cross;
        flushes = steps;
        total_scrip = total;
        dist;
        mean_balance = float_of_int total /. float_of_int n;
        avg_utility =
          Array.init 3 (fun k ->
              if kind_n.(k) = 0 then 0.0 else kind_sum.(k) /. float_of_int kind_n.(k));
      },
      List.rev !per_step )
end

(* {1 Commitments through Printf} *)

module Hashing = struct
  (* FNV-1a through [String.iter]'s closure over an [Int64 ref], and the
     commitment and signature strings built by [Printf.sprintf]. *)
  let hash s =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001B3L)
      s;
    let z = !h in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let commit ~value ~nonce = hash (Printf.sprintf "commit|%d|%d" value nonce)
  let sign ~secret ~msg = hash (Printf.sprintf "sig|%Ld|%s" secret msg)
end

(* {1 The best-response ladder over a list grid} *)

module Scrip_sweep = struct
  (* [Scrip_sweep.br_cutoff]'s estimate with the grid as a list and a
     [List.iteri] closure per kick: the chosen cutoff. *)
  let br_cutoff ~seed ~n ~cost =
    let p = B.Gnutella.default_params ~users:10 in
    let rng = B.Prng.create seed in
    let grid = List.init 11 (fun i -> cost *. (0.5 +. (0.1 *. float_of_int i))) in
    let sums = Array.make 11 0.0 in
    for _ = 1 to n do
      let kick =
        B.Gnutella.zipf_sample rng ~scale:p.B.Gnutella.kick_scale
          ~exponent:p.B.Gnutella.zipf_exponent
      in
      List.iteri (fun i tau -> if kick > tau then sums.(i) <- sums.(i) +. (kick -. cost)) grid
    done;
    let best = ref 0 in
    Array.iteri (fun i s -> if s > sums.(!best) then best := i) sums;
    List.nth grid !best
end

(* {1 Distributions merged by a scan} *)

module Dist = struct
  (* [Dist.of_list] with every list merged by the quadratic scan. *)
  let merge pairs =
    let add acc (x, p) =
      if p < 0.0 then invalid_arg "Dist: negative weight"
      else if p = 0.0 then acc
      else
        match List.assoc_opt x acc with
        | None -> (x, p) :: acc
        | Some q -> (x, p +. q) :: List.remove_assoc x acc
    in
    List.rev (List.fold_left add [] pairs)

  let of_list pairs =
    let merged = merge pairs in
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 merged in
    if merged = [] || total <= 0.0 then invalid_arg "Dist.of_list: empty support";
    List.map (fun (x, p) -> (x, p /. total)) merged

  let uniform xs = of_list (List.map (fun x -> (x, 1.0)) xs)
end

(* {1 The list-era synchronous network, its fold-style fault plan, and
   list-message EIG} *)

module N = B.Sync_net
module F = B.Faults

module Sync_list = struct
  (* The same Det counters lib/ bumps, so agreement suites can compare
     counter deltas. *)
  let c_runs = B.Obs.counter "sync_net.runs"
  let c_rounds = B.Obs.counter "sync_net.rounds"
  let c_sent = B.Obs.counter "sync_net.messages_sent"
  let c_dropped = B.Obs.counter "sync_net.messages_dropped"
  let c_link_events = B.Obs.counter "faults.link_events_applied"

  (* A fault plan as a pair of functions consulted per process and per
     attempted delivery. *)
  type 'm fault_plan = {
    crashed : round:int -> int -> bool;
    on_link : round:int -> src:int -> dst:int -> 'm -> (int * 'm) list;
  }

  (* Each inbox is a newest-first list of the round's arrivals (deliveries
     delayed into the round first), then stably sorted by sender. *)
  let run ?adversary ?faults ~n ~rounds protocol =
    if n <= 0 then invalid_arg "Sync_net.run: need processes";
    B.Obs.incr c_runs;
    let corrupted =
      match adversary with None -> [||] | Some a -> Array.of_list a.N.corrupted
    in
    let is_corrupt i = Array.exists (( = ) i) corrupted in
    let crashed ~round me =
      match faults with None -> false | Some f -> f.crashed ~round me
    in
    let on_link ~round ~src ~dst m =
      match faults with None -> [ (round, m) ] | Some f -> f.on_link ~round ~src ~dst m
    in
    let states = Array.init n protocol.N.init in
    let inboxes = Array.make n [] in
    let messages = ref 0 in
    let dropped = ref 0 in
    (* future.(r-1): deliveries delayed into round r, in arrival order. *)
    let future = Array.make rounds [] in
    for round = 1 to rounds do
      let outgoing = Array.make n [] in
      for me = 0 to n - 1 do
        let traffic =
          if crashed ~round me then []
          else if is_corrupt me then
            match adversary with
            | Some a -> a.N.behave ~round ~me ~inbox:inboxes.(me)
            | None -> []
          else protocol.N.send ~round ~me states.(me)
        in
        outgoing.(me) <- traffic
      done;
      let next_inboxes = Array.make n [] in
      List.iter
        (fun (dst, entry) -> next_inboxes.(dst) <- entry :: next_inboxes.(dst))
        (List.rev future.(round - 1));
      let deliver sender dst msg =
        let deliveries = on_link ~round ~src:sender ~dst msg in
        if deliveries = [] then incr dropped;
        List.iter
          (fun (r, m) ->
            if r <= round then next_inboxes.(dst) <- (sender, m) :: next_inboxes.(dst)
            else if r > rounds then incr dropped
            else future.(r - 1) <- (dst, (sender, m)) :: future.(r - 1))
          deliveries
      in
      for sender = 0 to n - 1 do
        List.iter
          (fun (dest, msg) ->
            match dest with
            | N.To j ->
              if j < 0 || j >= n then invalid_arg "Sync_net.run: destination out of range";
              incr messages;
              deliver sender j msg
            | N.All ->
              messages := !messages + n;
              for j = 0 to n - 1 do
                deliver sender j msg
              done)
          outgoing.(sender)
      done;
      for me = 0 to n - 1 do
        let inbox = List.sort (fun (a, _) (b, _) -> compare a b) next_inboxes.(me) in
        inboxes.(me) <- inbox;
        if not (is_corrupt me || crashed ~round me) then
          states.(me) <- protocol.N.recv ~round ~me states.(me) inbox
      done
    done;
    let outputs =
      Array.init n (fun me ->
          if is_corrupt me || crashed ~round:rounds me then None
          else protocol.N.output ~me states.(me))
    in
    B.Obs.add c_rounds rounds;
    B.Obs.add c_sent !messages;
    B.Obs.add c_dropped !dropped;
    { N.outputs; rounds_run = rounds; messages_sent = !messages; messages_dropped = !dropped }

  (* Folds the whole schedule over every attempted delivery. *)
  let plan ?corrupt schedule =
    let crashed ~round p =
      List.exists
        (function F.Crash { proc; round = r0 } -> proc = p && round >= r0 | _ -> false)
        schedule
    in
    let on_link ~round ~src ~dst m =
      let applied = ref 0 in
      let deliveries =
        List.fold_left
          (fun deliveries ev ->
            match ev with
            | F.Drop { round = r; src = s; dst = d } when r = round && s = src && d = dst ->
              incr applied;
              []
            | F.Duplicate { round = r; src = s; dst = d } when r = round && s = src && d = dst ->
              incr applied;
              List.concat_map (fun x -> [ x; x ]) deliveries
            | F.Delay { round = r; src = s; dst = d; by } when r = round && s = src && d = dst ->
              incr applied;
              List.map (fun (r', m') -> (r' + max 0 by, m')) deliveries
            | F.Partition { from_round; heal_round; groups }
              when round >= from_round && round < heal_round
                   && not (Async_list.same_group groups src dst) ->
              incr applied;
              []
            | F.Corrupt { round = r; src = s; dst = d } when r = round && s = src && d = dst -> (
              incr applied;
              match corrupt with
              | None -> deliveries
              | Some f -> List.map (fun (r', m') -> (r', f ~round ~src ~dst m')) deliveries)
            | F.Drop _ | F.Duplicate _ | F.Delay _ | F.Crash _ | F.Partition _ | F.Corrupt _ ->
              deliveries)
          [ (round, m) ]
          schedule
      in
      B.Obs.add c_link_events !applied;
      deliveries
    in
    { crashed; on_link }
end

module Eig_list = struct
  type msg = (int list * int) list

  (* The claim tree lives on flat per-level arrays instead of a hashtable of
     paths: a path [j1; …; jr] (all ids in 0..n−1) is packed as the base-n
     integer ((j1·n + j2)·n + …)·n + jr, so level r is an int array of size
     n^r plus a presence bitmap. Packing preserves order — for equal-length
     paths, ascending code order IS the lexicographic order that
     [Tbl.sorted_bindings] gave the old hashtable — so the broadcast claim
     lists, and hence every message and counter downstream, are unchanged.
     Claims whose paths carry out-of-range ids (only a hand-written adversary
     could fabricate one; none in the tree does) fall back to [extra], an
     assoc list merged and re-sorted on read, preserving the old accept-all
     semantics. *)
  type state = {
    n : int;
    t : int;
    default : int;
    me : int;
    levels_v : int array array; (* levels_v.(r).(code): value at packed path *)
    levels_p : Bytes.t array; (* presence bitmap, same indexing *)
    extra : (int list * int) list ref; (* out-of-range paths, newest first *)
  }

  (* Decode [code] at level [r] back into the path list (most significant
     digit = first relayer). *)
  let decode_path n r code =
    let rec go r code acc = if r = 0 then acc else go (r - 1) (code / n) ((code mod n) :: acc) in
    go r code []

  (* Does the packed level-[r] code contain digit [id]? Equivalent to
     [List.mem id path] on the decoded path, without decoding. *)
  let code_mem n id r code =
    let c = ref code and found = ref false in
    for _ = 1 to r do
      if !c mod n = id then found := true;
      c := !c / n
    done;
    !found

  (* Claims at level [r] whose path does not contain [me], sorted by path —
     a pure function of the tree's contents, as the broadcast message must
     be. Codes are scanned in ascending order (= lex order on fixed-length
     paths) and only the survivors are decoded. *)
  let send_entries st r ~me =
    if r < 0 || r >= Array.length st.levels_v then
      List.filter
        (fun (path, _) -> List.length path = r && not (List.mem me path))
        (List.rev !(st.extra))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    else begin
      let vals = st.levels_v.(r) and pres = st.levels_p.(r) in
      let acc = ref [] in
      for code = Bytes.length pres - 1 downto 0 do
        if Bytes.unsafe_get pres code <> '\000' && not (code_mem st.n me r code) then
          acc := (decode_path st.n r code, vals.(code)) :: !acc
      done;
      match
        List.filter
          (fun (path, _) -> List.length path = r && not (List.mem me path))
          !(st.extra)
      with
      | [] -> !acc
      | ex -> List.sort (fun (a, _) (b, _) -> compare a b) (List.rev_append ex !acc)
    end

  (* Pack [path] as a base-n code, expecting exactly [expect] digits, none
     equal to [sender] and all in 0..n−1. Returns the code (≥ 0), or −1 when
     the claim must be ignored (wrong length or relayed through [sender]), or
     −2 when some id is out of range (caller re-validates and falls back to
     [extra]). Allocation-free: this runs once per received claim. *)
  let rec walk_code n sender expect path code =
    match path with
    | [] -> if expect = 0 then code else -1
    | j :: rest ->
      if expect = 0 || j = sender then -1
      else if j < 0 || j >= n then -2
      else walk_code n sender (expect - 1) rest ((code * n) + j)

  let protocol ~n ~t ~values ~default =
    let init me =
      let pow_n r =
        let p = ref 1 in
        for _ = 1 to r do
          p := !p * n
        done;
        !p
      in
      let levels_v = Array.init (t + 2) (fun r -> Array.make (pow_n r) 0) in
      let levels_p = Array.init (t + 2) (fun r -> Bytes.make (Array.length levels_v.(r)) '\000') in
      levels_v.(0).(0) <- values.(me);
      Bytes.set levels_p.(0) 0 '\001';
      { n; t; default; me; levels_v; levels_p; extra = ref [] }
    in
    let send ~round ~me:_ st =
      (* Broadcast all claims at level round-1 whose path doesn't contain me;
         the root claim (own value) goes out in round 1. *)
      let entries = send_entries st (round - 1) ~me:st.me in
      if entries = [] then [] else [ (N.All, entries) ]
    in
    let recv ~round ~me:_ st inbox =
      let max_level = st.t + 1 in
      let rec claims_loop sender = function
        | [] -> ()
        | (path, v) :: rest ->
          let code = walk_code st.n sender (round - 1) path 0 in
          if code >= 0 then begin
            (* level of the extended path = round. *)
            if round <= max_level then begin
              let ext = (code * st.n) + sender in
              if Bytes.get st.levels_p.(round) ext = '\000' then begin
                st.levels_v.(round).(ext) <- v;
                Bytes.set st.levels_p.(round) ext '\001'
              end
            end
          end
          else if
            code = -2
            && List.length path = round - 1
            && not (List.mem sender path)
          then begin
            let extended = path @ [ sender ] in
            if List.length extended <= max_level && not (List.mem_assoc extended !(st.extra))
            then st.extra := (extended, v) :: !(st.extra)
          end;
          claims_loop sender rest
      in
      List.iter (fun (sender, claims) -> claims_loop sender claims) inbox;
      st
    in
    let output ~me:_ st =
      (* Recursive majority resolution from the leaves down to the root.
         [mask] tracks the ids already on the path (n ≤ word size); children
         are visited in ascending id order, and the strict-majority winner is
         unique, so a linear scan matches the old sorted-table lookup. *)
      (* One vote buffer per depth: the recursion below fills a depth's buffer
         while the parent's is still live, so depths can't share scratch. At
         any moment at most one call per depth is active. *)
      let vote_scratch = Array.init (st.t + 2) (fun _ -> Array.make st.n 0) in
      let rec resolve code mask len =
        if len = st.t + 1 then
          if Bytes.get st.levels_p.(len) code <> '\000' then st.levels_v.(len).(code)
          else st.default
        else begin
          let votes = vote_scratch.(len) in
          let nv = ref 0 in
          for l = 0 to st.n - 1 do
            if mask land (1 lsl l) = 0 then begin
              votes.(!nv) <- resolve ((code * st.n) + l) (mask lor (1 lsl l)) (len + 1);
              incr nv
            end
          done;
          let threshold = !nv / 2 in
          let winner = ref st.default in
          let found = ref false in
          let i = ref 0 in
          while (not !found) && !i < !nv do
            let v = votes.(!i) in
            let c = ref 0 in
            for j = 0 to !nv - 1 do
              if votes.(j) = v then incr c
            done;
            if !c > threshold then begin
              winner := v;
              found := true
            end;
            incr i
          done;
          !winner
        end
      in
      if st.t = 0 then
        Some (if Bytes.get st.levels_p.(0) 0 <> '\000' then st.levels_v.(0).(0) else st.default)
      else begin
        (* The root's children are all n ids; [resolve] needs its own vote
           scratch per level, so give the root a separate buffer. *)
        let root_votes = Array.init st.n (fun l -> resolve l (1 lsl l) 1) in
        let threshold = st.n / 2 in
        let winner = ref st.default in
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < st.n do
          let v = root_votes.(!i) in
          let c = ref 0 in
          Array.iter (fun x -> if x = v then incr c) root_votes;
          if !c > threshold then begin
            winner := v;
            found := true
          end;
          incr i
        done;
        Some !winner
      end
    in
    { N.init; send; recv; output }

  (* All paths of distinct ids not containing [me], of a given length, over
     processes 0..n-1. Used by adversaries to fabricate claims. *)
  let paths_of_length n length =
    let rec go len acc_paths =
      if len = 0 then acc_paths
      else
        go (len - 1)
          (List.concat_map
             (fun path ->
               List.filter_map
                 (fun j -> if List.mem j path then None else Some (path @ [ j ]))
                 (List.init n Fun.id))
             acc_paths)
    in
    go length [ [] ]

  let lying_adversary ~n ~corrupted ~claim =
    let behave ~round ~me ~inbox:_ =
      (* Claim at level round-1 that every path led to [claim]. *)
      let entries =
        List.filter_map
          (fun path -> if List.mem me path then None else Some (path, claim))
          (paths_of_length n (round - 1))
      in
      if entries = [] then [] else [ (N.All, entries) ]
    in
    { N.corrupted; behave }

  let equivocating_adversary ~n ~corrupted rng =
    let behave ~round ~me ~inbox:_ =
      List.filter_map
        (fun dest ->
          let entries =
            List.filter_map
              (fun path ->
                if List.mem me path then None else Some (path, B.Prng.int rng 2))
              (paths_of_length n (round - 1))
          in
          if entries = [] then None else Some (N.To dest, entries))
        (List.init n Fun.id)
    in
    { N.corrupted; behave }
end
