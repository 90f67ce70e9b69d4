module Sync_net = Bn_dist_sim.Sync_net

type msg = { level : int; claims : int array }

(* The claim tree lives on flat arrays: a path [j1; …; jr] (all ids in
   0..n−1) is packed as the base-n integer ((j1·n + j2)·n + …)·n + jr, its
   code at level r, and level r occupies the n^r slots from [off.(r)] on.
   Packing preserves order — for equal-length paths ascending code order
   is the lexicographic order — so a message lists its claims by
   ascending code. Everything a protocol's runs share is in [tables],
   built once and never written again: the powers n^r, the level offsets,
   per level r ≤ t the set of ids each code's path holds as a bitset (ids
   < 63), and the codes of the level's paths of distinct ids, the nodes
   that the decision resolves. *)
type tables = {
  n : int;
  t : int;
  size : int array; (* size.(r) = n^r, r = 0..t+1 *)
  off : int array; (* off.(r) = n^0 + … + n^(r−1), r = 0..t+2 *)
  digits : int array array; (* digits.(r).(code): bitset of the path's ids, r = 0..t *)
  nodes : int array array; (* nodes.(r): codes of distinct-id paths, ascending, r = 0..t *)
}

(* One run's tree: the values of levels 0..t in [vals], presence of levels
   0..t+1 in [pres], and the leaf level t+1 split by its last relayer —
   the value at code c·n + s is [leaf.(s).(c)], the default until a claim
   arrives — so no array holds more than n^t words (a 343-word leaf level
   at n = 7, t = 2 would go straight to the major heap, once per process
   per run). *)
type state = {
  tb : tables;
  default : int;
  me : int;
  vals : int array;
  pres : Bytes.t;
  leaf : int array array;
}

let tables ~n ~t =
  let size = Array.make (t + 2) 1 in
  for r = 1 to t + 1 do
    size.(r) <- size.(r - 1) * n
  done;
  let off = Array.make (t + 3) 0 in
  for r = 1 to t + 2 do
    off.(r) <- off.(r - 1) + size.(r - 1)
  done;
  let digits = Array.make (t + 1) [| 0 |] in
  for r = 1 to t do
    let up = digits.(r - 1) in
    digits.(r) <- Array.init size.(r) (fun code -> up.(code / n) lor (1 lsl (code mod n)))
  done;
  (* A path of r ids holds r distinct ones iff its bitset has r bits. *)
  let rec bits x = if x = 0 then 0 else 1 + bits (x land (x - 1)) in
  let nodes =
    Array.init (t + 1) (fun r ->
        Array.of_list (List.filter (fun code -> bits digits.(r).(code) = r) (List.init size.(r) Fun.id)))
  in
  { n; t; size; off; digits; nodes }

let holds tb r code id =
  if r <= tb.t then tb.digits.(r).(code) land (1 lsl id) <> 0
  else code mod tb.n = id || tb.digits.(tb.t).(code / tb.n) land (1 lsl id) <> 0

let value st r code =
  if r <= st.tb.t then st.vals.(st.tb.off.(r) + code)
  else st.leaf.(code mod st.tb.n).(code / st.tb.n)

(* Claims at level [r] whose path does not hold [me], by ascending code:
   a pure function of the tree's contents, as the broadcast must be. *)
let send_claims st r =
  if r < 0 || r > st.tb.t + 1 then [||]
  else begin
    let base = st.tb.off.(r) and size = st.tb.size.(r) in
    let keep =
      if r > st.tb.t then fun code -> not (holds st.tb r code st.me)
      else begin
        let digits = st.tb.digits.(r) and bit = 1 lsl st.me in
        fun code -> Array.unsafe_get digits code land bit = 0
      end
    in
    let count = ref 0 in
    for code = 0 to size - 1 do
      if Bytes.unsafe_get st.pres (base + code) <> '\000' && keep code then incr count
    done;
    let claims = Array.make (2 * !count) 0 in
    let i = ref 0 in
    for code = 0 to size - 1 do
      if Bytes.unsafe_get st.pres (base + code) <> '\000' && keep code then begin
        claims.(!i) <- code;
        claims.(!i + 1) <- value st r code;
        i := !i + 2
      end
    done;
    claims
  end

(* Stores [sender]'s level-(round−1) claims at level [round], extended by
   [sender]; the first claim for a path wins. A claim is ignored when its
   code names no level-(round−1) path or its path already holds
   [sender]. *)
let absorb st round sender claims =
  let tb = st.tb and level = round - 1 in
  let size = tb.size.(level) and digits = tb.digits.(level) and bit = 1 lsl sender in
  let at = tb.off.(round) + sender and leafy = round > tb.t in
  let row = if leafy then st.leaf.(sender) else st.vals in
  (* Every index below is in range: [code] is checked against the level's
     size, and [p] lies in level [round]. *)
  for i = 0 to (Array.length claims / 2) - 1 do
    let code = Array.unsafe_get claims (2 * i) in
    if code >= 0 && code < size && Array.unsafe_get digits code land bit = 0 then begin
      let p = at + (code * tb.n) in
      if Bytes.unsafe_get st.pres p = '\000' then begin
        Bytes.unsafe_set st.pres p '\001';
        Array.unsafe_set row (if leafy then code else p) (Array.unsafe_get claims ((2 * i) + 1))
      end
    end
  done

let rec absorb_inbox st round = function
  | [] -> ()
  | (sender, m) :: rest ->
    if m.level = round - 1 then absorb st round sender m.claims;
    absorb_inbox st round rest

(* The value held by a strict majority of [votes.(0 .. nv−1)], else
   [default]. Most nodes are unanimous, so the votes are first compared
   with the first one; on a mismatch Boyer–Moore goes on from that prefix
   (a strict majority is unique, and it is the one candidate left after
   the pairing pass). *)
let majority (votes : int array) nv default =
  if nv = 0 then default
  else begin
    let v0 = votes.(0) in
    let same = ref 1 in
    while !same < nv && votes.(!same) = v0 do
      incr same
    done;
    if !same = nv then v0
    else begin
      let cand = ref v0 and lead = ref !same in
      for i = !same to nv - 1 do
        if !lead = 0 then begin
          cand := votes.(i);
          lead := 1
        end
        else if votes.(i) = !cand then incr lead
        else decr lead
      done;
      let c = ref 0 in
      for i = 0 to nv - 1 do
        if votes.(i) = !cand then incr c
      done;
      if 2 * !c > nv then !cand else default
    end
  end

(* Majority resolution, bottom up over the nodes of distinct ids: a node
   at level t votes over its leaves (a missing leaf holds the default), a
   node above over its children's results, kept in [res] at the nodes'
   [vals] slots; the root's result is the decision. *)
let decide st =
  let tb = st.tb and default = st.default in
  let n = tb.n and t = tb.t in
  if t = 0 then if Bytes.get st.pres 0 <> '\000' then st.vals.(0) else default
  else begin
    let res = Array.make tb.off.(t + 1) default in
    let votes = Array.make n 0 in
    let at = tb.off.(t) and nodes = tb.nodes.(t) and digits = tb.digits.(t) in
    for i = 0 to Array.length nodes - 1 do
      let code = nodes.(i) in
      let held = digits.(code) in
      let nv = ref 0 in
      for l = 0 to n - 1 do
        if held land (1 lsl l) = 0 then begin
          votes.(!nv) <- st.leaf.(l).(code);
          incr nv
        end
      done;
      res.(at + code) <- majority votes !nv default
    done;
    for r = t - 1 downto 0 do
      let nodes = tb.nodes.(r) and digits = tb.digits.(r) in
      let at = tb.off.(r) and below = tb.off.(r + 1) in
      for i = 0 to Array.length nodes - 1 do
        let code = nodes.(i) in
        let held = digits.(code) and base = below + (code * n) in
        let nv = ref 0 in
        for l = 0 to n - 1 do
          if held land (1 lsl l) = 0 then begin
            votes.(!nv) <- res.(base + l);
            incr nv
          end
        done;
        res.(at + code) <- majority votes !nv default
      done
    done;
    res.(0)
  end

let protocol ~n ~t ~values ~default =
  let tb = tables ~n ~t in
  let init me =
    let vals = Array.make tb.off.(t + 1) 0 in
    let pres = Bytes.make tb.off.(t + 2) '\000' in
    let leaf = Array.init n (fun _ -> Array.make tb.size.(t) default) in
    vals.(0) <- values.(me);
    Bytes.set pres 0 '\001';
    { tb; default; me; vals; pres; leaf }
  in
  let send ~round ~me:_ st =
    (* Broadcast all claims at level round-1 whose path doesn't contain me;
       the root claim (own value) goes out in round 1. *)
    let claims = send_claims st (round - 1) in
    if Array.length claims = 0 then [] else [ (Sync_net.All, { level = round - 1; claims }) ]
  in
  let recv ~round ~me:_ st inbox =
    if round >= 1 && round <= t + 1 then absorb_inbox st round inbox;
    st
  in
  let output ~me:_ st = Some (decide st) in
  { Sync_net.init; send; recv; output }

let run ?adversary ?faults ~n ~t ~values ~default () =
  Sync_net.run ?adversary ?faults ~n ~rounds:(t + 1) (protocol ~n ~t ~values ~default)

(* Codes, ascending, of the level-[level] paths of distinct ids in
   0..n−1 that avoid [me]: what adversaries fabricate claims for. *)
let distinct_codes ~n ~level ~me =
  let acc = ref [] in
  let rec go depth code mask =
    if depth = level then acc := code :: !acc
    else
      for j = 0 to n - 1 do
        if mask land (1 lsl j) = 0 && j <> me then go (depth + 1) ((code * n) + j) (mask lor (1 lsl j))
      done
  in
  go 0 0 0;
  Array.of_list (List.rev !acc)

(* A level-[level] message claiming [value code] for every code, drawn in
   ascending code order. *)
let fabricate ~level codes value =
  let claims = Array.make (2 * Array.length codes) 0 in
  Array.iteri
    (fun i code ->
      claims.(2 * i) <- code;
      claims.((2 * i) + 1) <- value code)
    codes;
  { level; claims }

let lying_adversary ~n ~corrupted ~claim =
  let behave ~round ~me ~inbox:_ =
    (* Claim at level round-1 that every path led to [claim]. *)
    let codes = distinct_codes ~n ~level:(round - 1) ~me in
    if Array.length codes = 0 then []
    else [ (Sync_net.All, fabricate ~level:(round - 1) codes (fun _ -> claim)) ]
  in
  { Sync_net.corrupted; behave }

let equivocating_adversary ~n ~corrupted rng =
  let behave ~round ~me ~inbox:_ =
    let codes = distinct_codes ~n ~level:(round - 1) ~me in
    if Array.length codes = 0 then []
    else begin
      (* Draws go recipient by recipient, each message's in code order. *)
      let out = ref [] in
      for dest = 0 to n - 1 do
        let m = fabricate ~level:(round - 1) codes (fun _ -> Bn_util.Prng.int rng 2) in
        out := (Sync_net.To dest, m) :: !out
      done;
      List.rev !out
    end
  in
  { Sync_net.corrupted; behave }

let agreement result =
  let decided = List.filter_map Fun.id (Array.to_list result.Sync_net.outputs) in
  match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest

let validity ~honest_values result =
  match honest_values with
  | [] -> true
  | v :: rest ->
    if List.for_all (( = ) v) rest then
      Array.for_all
        (function None -> true | Some d -> d = v)
        result.Sync_net.outputs
    else true
