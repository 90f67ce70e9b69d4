(* Every expected utility here runs on a flat kernel over the per-player
   Bigarray tables ({!Normal_form.Flat}): [eu2]/[eu2_dev] for two players,
   [Kernel] for any n. Each returns bitwise what [Mixed.expected_payoff]
   returns — same left-to-right support products, 0.0-initialized
   accumulators and [pr > 0.0] skips; [1.0 *. x = x] and [0.0 +. x = x] in
   IEEE, so a deviator's point mass and the pure fast path agree
   bit-for-bit with the support product. *)

module Flat = Normal_form.Flat

let eu2 g prof ~player =
  let tab = Flat.table g player in
  let st0 = Normal_form.stride g 0 and st1 = Normal_form.stride g 1 in
  let s0 = prof.(0) and s1 = prof.(1) in
  let acc = ref 0.0 in
  for a = 0 to Array.length s0 - 1 do
    let pa = Array.unsafe_get s0 a in
    if pa > 0.0 then begin
      let base = a * st0 in
      for b = 0 to Array.length s1 - 1 do
        let pb = Array.unsafe_get s1 b in
        if pb > 0.0 then begin
          let pr = pa *. pb in
          if pr > 0.0 then
            acc := !acc +. (pr *. Bigarray.Array1.get tab (base + (b * st1)))
        end
      done
    end
  done;
  !acc

(* EU of [player] deviating to the pure [action] while the other follows
   [prof]: the deviator's point mass contributes a bitwise no-op 1.0 factor
   to each support product. *)
let eu2_dev g prof ~player ~action =
  let tab = Flat.table g player in
  let st0 = Normal_form.stride g 0 and st1 = Normal_form.stride g 1 in
  let other = prof.(1 - player) in
  let acc = ref 0.0 in
  if player = 0 then begin
    let base = action * st0 in
    for b = 0 to Array.length other - 1 do
      let pb = Array.unsafe_get other b in
      if pb > 0.0 then
        acc := !acc +. (pb *. Bigarray.Array1.get tab (base + (b * st1)))
    done
  end
  else begin
    let base = action * st1 in
    for a = 0 to Array.length other - 1 do
      let pa = Array.unsafe_get other a in
      if pa > 0.0 then
        acc := !acc +. (pa *. Bigarray.Array1.get tab ((a * st0) + base))
    done
  end;
  !acc

(* The n-player kernel: support-compressed product iteration with
   caller-owned scratch. The loops mirror [Mixed.iter_support] exactly —
   supports are the [p > 0.0] coordinates in action order, probabilities
   accumulate as the same left-to-right prefix products, and
   zero-probability profiles are skipped at the same spot. *)
module Kernel = struct
  type t = {
    n : int;
    acts : int array;
    strides : int array;
    tabs : Flat.ba array;
    supp_act : int array array;  (* per player: support actions, prefix *)
    supp_prob : float array array;
    supp_len : int array;
    pos : int array;  (* odometer position per level *)
    pref_pr : float array;  (* left-to-right probability prefixes *)
    pref_idx : int array;  (* matching flat-index prefixes *)
    ids : int array;  (* every player, in order *)
    opp : int array;  (* players ≠ i, in player order *)
  }

  let make g =
    let n = Normal_form.n_players g in
    let acts = Normal_form.actions g in
    {
      n;
      acts;
      strides = Array.init n (Normal_form.stride g);
      tabs = Array.init n (Flat.table g);
      supp_act = Array.map (fun m -> Array.make m 0) acts;
      supp_prob = Array.map (fun m -> Array.make m 0.0) acts;
      supp_len = Array.make n 0;
      pos = Array.make n 0;
      pref_pr = Array.make n 1.0;
      pref_idx = Array.make n 0;
      ids = Array.init n Fun.id;
      opp = Array.make (if n > 1 then n - 1 else 1) 0;
    }

  let refresh k (prof : Mixed.profile) =
    for j = 0 to k.n - 1 do
      let s = prof.(j) in
      let acts = k.supp_act.(j) and probs = k.supp_prob.(j) in
      let len = ref 0 in
      for a = 0 to Array.length s - 1 do
        let p = Array.unsafe_get s a in
        if p > 0.0 then begin
          acts.(!len) <- a;
          probs.(!len) <- p;
          incr len
        end
      done;
      k.supp_len.(j) <- !len
    done

  (* The support product over the players [order.(0 .. levels−1)] is
     walked row-major by an odometer whose per-level prefixes of the
     probability product and the flat index sit in [pref_pr]/[pref_idx];
     the current profile's are at [levels − 1]. [start] places it on the
     first profile ([false] when some support is empty); [advance] moves
     to the next ([false] past the last), recomputing only the levels at
     and below the one that moved. *)
  let recompute_from k order levels l0 =
    for l = l0 to levels - 1 do
      let j = order.(l) in
      let p = k.pos.(l) in
      k.pref_pr.(l) <- (if l = 0 then 1.0 else k.pref_pr.(l - 1)) *. k.supp_prob.(j).(p);
      k.pref_idx.(l) <-
        (if l = 0 then 0 else k.pref_idx.(l - 1)) + (k.supp_act.(j).(p) * k.strides.(j))
    done

  let start k order levels =
    let empty = ref false in
    for l = 0 to levels - 1 do
      if k.supp_len.(order.(l)) = 0 then empty := true
    done;
    if !empty then false
    else begin
      Array.fill k.pos 0 levels 0;
      recompute_from k order levels 0;
      true
    end

  let advance k order levels =
    let rec bump l =
      if l < 0 then false
      else if k.pos.(l) + 1 < k.supp_len.(order.(l)) then begin
        k.pos.(l) <- k.pos.(l) + 1;
        recompute_from k order levels l;
        true
      end
      else begin
        k.pos.(l) <- 0;
        bump (l - 1)
      end
    in
    bump (levels - 1)

  (* Every player's expected payoff in one sweep of the full support
     product: [out.(i)] accumulates exactly as [Mixed.expected_payoff g
     prof i] does (0.0 on an empty support). *)
  let own_values k (out : float array) =
    let n = k.n in
    Array.fill out 0 n 0.0;
    let continue = ref (start k k.ids n) in
    while !continue do
      let pr = k.pref_pr.(n - 1) in
      if pr > 0.0 then begin
        let idx = k.pref_idx.(n - 1) in
        for i = 0 to n - 1 do
          out.(i) <- out.(i) +. (pr *. Bigarray.Array1.unsafe_get k.tabs.(i) idx)
        done
      end;
      continue := advance k k.ids n
    done

  (* [out.(a)] becomes player [i]'s expected payoff for playing pure [a]
     against the others' supports: one sweep over the opponents'
     product, every action's sum accumulating in the order
     [Mixed.expected_payoff] visits it on the profile with [i]'s strategy
     replaced by the point mass on [a] (which contributes a bitwise no-op
     1.0 factor). *)
  let deviation_values k i (out : float array) =
    let tab = k.tabs.(i) and st = k.strides.(i) and mi = k.acts.(i) in
    Array.fill out 0 mi 0.0;
    let np = k.n - 1 in
    if np = 0 then
      for a = 0 to mi - 1 do
        out.(a) <- out.(a) +. (1.0 *. Bigarray.Array1.unsafe_get tab (a * st))
      done
    else begin
      let w = ref 0 in
      for j = 0 to k.n - 1 do
        if j <> i then begin
          k.opp.(!w) <- j;
          incr w
        end
      done;
      let continue = ref (start k k.opp np) in
      while !continue do
        let pr = k.pref_pr.(np - 1) in
        if pr > 0.0 then begin
          let base = k.pref_idx.(np - 1) in
          for a = 0 to mi - 1 do
            out.(a) <- out.(a) +. (pr *. Bigarray.Array1.unsafe_get tab (base + (a * st)))
          done
        end;
        continue := advance k k.opp np
      done
    end
end

let max_value (vs : float array) =
  let best = ref neg_infinity in
  for a = 0 to Array.length vs - 1 do
    if vs.(a) > !best then best := vs.(a)
  done;
  !best

let kernel_of g prof =
  let k = Kernel.make g in
  Kernel.refresh k prof;
  k

(* [player]'s payoff for each pure action against the others' profile. *)
let deviation_values g prof ~player =
  let m = Normal_form.num_actions g player in
  if Normal_form.n_players g = 2 then Array.init m (fun a -> eu2_dev g prof ~player ~action:a)
  else begin
    let out = Array.make m 0.0 in
    Kernel.deviation_values (kernel_of g prof) player out;
    out
  end

let best_response_value g prof ~player = max_value (deviation_values g prof ~player)

let pure_best_responses g prof ~player =
  let devs = deviation_values g prof ~player in
  let best = max_value devs in
  let acc = ref [] in
  for a = Array.length devs - 1 downto 0 do
    if Float.abs (devs.(a) -. best) <= 1e-9 then acc := a :: !acc
  done;
  !acc

let regret g prof ~player =
  let n = Normal_form.n_players g in
  if n = 2 then Float.max 0.0 (best_response_value g prof ~player -. eu2 g prof ~player)
  else begin
    let k = kernel_of g prof in
    let own = Array.make n 0.0 and devs = Array.make (Normal_form.num_actions g player) 0.0 in
    Kernel.own_values k own;
    Kernel.deviation_values k player devs;
    Float.max 0.0 (max_value devs -. own.(player))
  end

(* Two players: allocation-free loops over [eu2]/[eu2_dev]. Otherwise one
   kernel sweep for every player's own value and one per player for all
   of its deviations. *)
let max_regret g prof =
  let n = Normal_form.n_players g in
  let worst = ref 0.0 in
  if n = 2 then
    for player = 0 to 1 do
      let br = ref neg_infinity in
      for a = 0 to Normal_form.num_actions g player - 1 do
        let v = eu2_dev g prof ~player ~action:a in
        if v > !br then br := v
      done;
      let r = Float.max 0.0 (!br -. eu2 g prof ~player) in
      if r > !worst then worst := r
    done
  else begin
    let k = kernel_of g prof in
    let own = Array.make n 0.0 in
    Kernel.own_values k own;
    for player = 0 to n - 1 do
      let devs = Array.make (Normal_form.num_actions g player) 0.0 in
      Kernel.deviation_values k player devs;
      let r = Float.max 0.0 (max_value devs -. own.(player)) in
      if r > !worst then worst := r
    done
  end;
  !worst

let is_nash ?(eps = 1e-9) g prof = max_regret g prof <= eps

(* On a fully-pure profile every EU evaluation collapses to
   [0.0 +. table read], so the Nash check is a stride-shifted deviation
   scan on the flat index — no Mixed profiles, no allocation. *)
let is_pure_nash ?(eps = 1e-9) g pure_acts =
  let n = Normal_form.n_players g in
  let idx = Normal_form.index_of g pure_acts in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let player = !i in
    let tab = Flat.table g player in
    let st = Normal_form.stride g player in
    let base = idx - (pure_acts.(player) * st) in
    let best = ref neg_infinity in
    for a = 0 to Normal_form.num_actions g player - 1 do
      let v = 0.0 +. Bigarray.Array1.get tab (base + (a * st)) in
      if v > !best then best := v
    done;
    let current = 0.0 +. Bigarray.Array1.get tab idx in
    if Float.max 0.0 (!best -. current) > eps then ok := false;
    incr i
  done;
  !ok

let pure_equilibria ?eps g =
  let acc = ref [] in
  Normal_form.iter_profiles g (fun p -> if is_pure_nash ?eps g p then acc := Array.copy p :: !acc);
  List.rev !acc

(* Gaussian elimination with partial pivoting on caller-owned scratch —
   the same pivot choice, 1e-12 singularity threshold and back-substitution
   as [Bn_util.Linalg.solve], minus its per-call copies. [m]'s first [nv]
   rows hold the [nv × (nv+1)] augmented system (rows at least [nv+1] wide;
   the rows are permuted in place); the solution lands in [x.(0 .. nv−1)].
   Returns [false] on a (near-)singular system. *)
let solve_scratch m x nv =
  let singular = ref false in
  (try
     for col = 0 to nv - 1 do
       let pivot = ref col in
       for r = col + 1 to nv - 1 do
         if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
       done;
       if Float.abs m.(!pivot).(col) < 1e-12 then begin
         singular := true;
         raise Exit
       end;
       let tmp = m.(col) in
       m.(col) <- m.(!pivot);
       m.(!pivot) <- tmp;
       for r = col + 1 to nv - 1 do
         let factor = m.(r).(col) /. m.(col).(col) in
         for c = col to nv do
           m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
         done
       done
     done
   with Exit -> ());
  if !singular then false
  else begin
    for i = nv - 1 downto 0 do
      let s = ref m.(i).(nv) in
      for j = i + 1 to nv - 1 do
        s := !s -. (m.(i).(j) *. x.(j))
      done;
      x.(i) <- !s /. m.(i).(i)
    done;
    true
  end

(* Support enumeration for 2-player games: for supports (s1, s2) of equal
   size, the row player's mixture must make every column in s2 indifferent,
   and symmetrically. Solving the two linear systems and verifying the
   equilibrium conditions yields every equilibrium of a nondegenerate
   game. *)
let support_enumeration_2p ?(eps = 1e-7) g =
  if Normal_form.n_players g <> 2 then
    invalid_arg "Nash.support_enumeration_2p: two-player games only";
  let m1 = Normal_form.num_actions g 0 and m2 = Normal_form.num_actions g 1 in
  let tab0 = Flat.table g 0 and tab1 = Flat.table g 1 in
  let st0 = Normal_form.stride g 0 and st1 = Normal_form.stride g 1 in
  let u1 i j = Bigarray.Array1.unsafe_get tab0 ((i * st0) + (j * st1)) in
  let u2 i j = Bigarray.Array1.unsafe_get tab1 ((i * st0) + (j * st1)) in
  let results = ref [] in
  let add prof =
    if not (List.exists (fun p -> Mixed.equal ~eps:1e-6 p prof) !results) then
      results := prof :: !results
  in
  (* Shared scratch for every indifference system in the sweep: supports are
     at most max(m1,m2) actions, so systems are at most (mmax+1) square. *)
  let mmax = if m1 > m2 then m1 else m2 in
  let scratch = Array.init (mmax + 1) (fun _ -> Array.make (mmax + 2) 0.0) in
  let xsol = Array.make (mmax + 1) 0.0 in
  (* Solve for the mixture of [mixer] (over support s_mix) that makes
     [other] indifferent across s_other; unknowns: probs + common value.
     One indifference equation per action of [other], plus sum-to-1. *)
  let solve_indifference ~payoff_other (s_mix : int array) (s_other : int array) =
    let k = Array.length s_mix in
    let nv = k + 1 in
    for r = 0 to k - 1 do
      let row = scratch.(r) in
      for c = 0 to k - 1 do
        row.(c) <- payoff_other s_mix.(c) s_other.(r)
      done;
      row.(k) <- -1.0;
      row.(nv) <- 0.0
    done;
    let last = scratch.(k) in
    for c = 0 to k - 1 do
      last.(c) <- 1.0
    done;
    last.(k) <- 0.0;
    last.(nv) <- 1.0;
    if not (solve_scratch scratch xsol nv) then None
    else begin
      let ok = ref true in
      for c = 0 to k - 1 do
        if xsol.(c) < -.eps then ok := false
      done;
      if !ok then Some (Array.sub xsol 0 k) else None
    end
  in
  let expand full (support : int array) probs =
    let s = Array.make full 0.0 in
    Array.iteri (fun idx a -> s.(a) <- Float.max 0.0 probs.(idx)) support;
    let total = Array.fold_left ( +. ) 0.0 s in
    Array.map (fun p -> p /. total) s
  in
  let u1_flipped j i = u1 i j in
  let pure_pair = Array.make 2 0 in
  (* Supports are enumerated with an in-place combination odometer instead
     of materializing [Combin.subsets_up_to] lists: only equal-size pairs
     ever yield a square indifference system, and the visit order — size
     ascending, lexicographic within a size, s1-major — is exactly the
     order the filtered subset×subset product used, so the result list is
     unchanged. [next_comb] advances [c] to the lexicographic successor
     among size-|c| subsets of {0..m-1}. *)
  let next_comb c m =
    let k = Array.length c in
    let i = ref (k - 1) in
    while !i >= 0 && c.(!i) = m - k + !i do
      decr i
    done;
    if !i < 0 then false
    else begin
      c.(!i) <- c.(!i) + 1;
      for j = !i + 1 to k - 1 do
        c.(j) <- c.(j - 1) + 1
      done;
      true
    end
  in
  let kmax = if m1 < m2 then m1 else m2 in
  for k = 1 to kmax do
    let s1 = Array.init k Fun.id in
    let s2 = Array.init k Fun.id in
    let continue1 = ref true in
    while !continue1 do
      for i = 0 to k - 1 do
        s2.(i) <- i
      done;
      let continue2 = ref true in
      while !continue2 do
        (if k = 1 then begin
           (* Singleton supports: the two indifference systems are 2×2
              with determinant 1, always yielding probs = [1], so the
              candidate is exactly the pure pair — and accepting it on
              [max_regret ≤ eps] is the same verdict as the pure-Nash
              deviation scan (every EU involved is a plain table read). *)
           pure_pair.(0) <- s1.(0);
           pure_pair.(1) <- s2.(0);
           if is_pure_nash ~eps g pure_pair then add (Mixed.pure_profile g pure_pair)
         end
         else
           (* Row mixture makes column player indifferent on s2
              (payoff_other must be u2 as a function of (mixer's action,
              other's action)). *)
           match solve_indifference ~payoff_other:u2 s1 s2 with
           | None -> ()
           | Some p1 -> (
             match solve_indifference ~payoff_other:u1_flipped s2 s1 with
             | None -> ()
             | Some p2 ->
               let prof = [| expand m1 s1 p1; expand m2 s2 p2 |] in
               if
                 Mixed.is_valid prof.(0) && Mixed.is_valid prof.(1)
                 && max_regret g prof <= eps
               then add prof));
        continue2 := next_comb s2 m2
      done;
      continue1 := next_comb s1 m1
    done
  done;
  List.iter (fun p -> add (Mixed.pure_profile g p)) (pure_equilibria g);
  List.rev !results

let find_2p ?eps g =
  match support_enumeration_2p ?eps g with [] -> None | p :: _ -> Some p
