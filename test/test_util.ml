module B = Beyond_nash

let check_float = Alcotest.(check (float 1e-9))

(* {1 Prng} *)

let test_prng_determinism () =
  let a = B.Prng.create 42 and b = B.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (B.Prng.bits64 a) (B.Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = B.Prng.create 1 and b = B.Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (B.Prng.bits64 a = B.Prng.bits64 b)

let test_prng_split_independent () =
  let a = B.Prng.create 7 in
  let c = B.Prng.split a 0 in
  let d = B.Prng.split a 1 in
  let c0 = B.Prng.bits64 c in
  Alcotest.(check bool) "split differs from parent" false (c0 = B.Prng.bits64 a);
  Alcotest.(check bool) "sibling splits differ" false (c0 = B.Prng.bits64 d);
  (* Pure in (state, index): re-deriving the same child from the same
     parent state gives the same stream. *)
  let c' = B.Prng.split (B.Prng.create 7) 0 in
  Alcotest.(check int64) "split is pure" c0 (B.Prng.bits64 c')

let test_prng_copy () =
  let a = B.Prng.create 3 in
  let _ = B.Prng.bits64 a in
  let b = B.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (B.Prng.bits64 a) (B.Prng.bits64 b)

let test_prng_float_range () =
  let rng = B.Prng.create 9 in
  for _ = 1 to 1000 do
    let x = B.Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_int_range () =
  let rng = B.Prng.create 10 in
  for _ = 1 to 1000 do
    let x = B.Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_invalid () =
  let rng = B.Prng.create 1 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (B.Prng.int rng 0))

let test_prng_shuffle_permutation () =
  let rng = B.Prng.create 4 in
  let arr = Array.init 20 Fun.id in
  B.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* Known answers. Seed 0's first two outputs are the published SplitMix64
   reference values; the others pin [int], [float] and [split] as they
   stand. The other Prng tests only compare streams with each other, so a
   shifted or re-derived sequence would pass them. *)
let test_prng_known_answers () =
  let t = B.Prng.create 0 in
  Alcotest.(check int64) "seed 0, first bits64" 0xe220a8397b1dcdafL (B.Prng.bits64 t);
  Alcotest.(check int64) "seed 0, second bits64" 0x6e789e6aa1b965f4L (B.Prng.bits64 t);
  let t = B.Prng.create 42 in
  Alcotest.(check int) "seed 42, int _ 1000" 706 (B.Prng.int t 1000);
  Alcotest.(check int64) "seed 42, then float (bits)"
    (Int64.bits_of_float 0.1599103928769201)
    (Int64.bits_of_float (B.Prng.float t));
  Alcotest.(check int64) "split (create 7) 3, first bits64" 0xa2ce26c2d1774ce8L
    (B.Prng.bits64 (B.Prng.split (B.Prng.create 7) 3))

let test_prng_uniformity () =
  (* Chi-square-ish sanity: each bucket within 20% of expectation. *)
  let rng = B.Prng.create 123 in
  let buckets = Array.make 10 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let i = B.Prng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near uniform" true
        (abs (c - (samples / 10)) < samples / 50))
    buckets

(* {1 Dist} *)

let test_dist_normalizes () =
  let d = B.Dist.of_list [ ("a", 2.0); ("b", 6.0) ] in
  check_float "mass a" 0.25 (B.Dist.mass d "a");
  check_float "mass b" 0.75 (B.Dist.mass d "b")

let test_dist_merges_duplicates () =
  let d = B.Dist.of_list [ (1, 1.0); (1, 1.0); (2, 2.0) ] in
  Alcotest.(check int) "support size" 2 (List.length (B.Dist.support d));
  check_float "merged mass" 0.5 (B.Dist.mass d 1)

let test_dist_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.of_list: empty support") (fun () ->
      ignore (B.Dist.of_list ([] : (int * float) list)))

let test_dist_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Dist: negative weight") (fun () ->
      ignore (B.Dist.of_list [ (1, -1.0); (2, 2.0) ]))

(* [Dist.of_list] and [Dist.uniform] against the quadratic-scan oracle,
   on lists shorter and longer than the scan's limit (32 pairs). Keys are
   one-float arrays drawn from a small pool with repeats, holding 0.0 and
   -0.0 (equal under [compare]: the merged key keeps the last spelling)
   and nan; weights include zeros of both signs. Results must agree to
   the bit, keys included. *)
let dist_keys = [| 0.0; -0.0; Float.nan; 1.0; -1.0; 0.5; 2.0; 1e300; -1e-300 |]

let arb_dist_pairs =
  let open QCheck.Gen in
  let key =
    oneof
      [ map (fun i -> [| dist_keys.(i) |]) (int_range 0 (Array.length dist_keys - 1));
        map (fun i -> [| float_of_int i |]) (int_range 0 80) ]
  in
  let weight =
    oneof [ return 0.0; return (-0.0); float_range 0.0 4.0; map float_of_int (int_range 1 5) ]
  in
  QCheck.make
    ~print:(fun l ->
      String.concat "; " (List.map (fun (k, w) -> Printf.sprintf "[|%h|],%h" k.(0) w) l))
    (list_size (oneof [ int_range 0 40; int_range 0 120 ]) (pair key weight))

let bits = Int64.bits_of_float

let same_dist a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x, p) (y, q) ->
         Array.length x = Array.length y
         && Array.for_all2 (fun u v -> Int64.equal (bits u) (bits v)) x y
         && Int64.equal (bits p) (bits q))
       a b

let dist_outcome f x = match f x with d -> Ok d | exception Invalid_argument m -> Error m

let dist_of_list_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"dist: of_list = quadratic-merge oracle, bit for bit"
    arb_dist_pairs (fun pairs ->
      match
        (dist_outcome (fun l -> B.Dist.to_list (B.Dist.of_list l)) pairs,
         dist_outcome Oracles.Dist.of_list pairs)
      with
      | Ok a, Ok b -> same_dist a b
      | Error a, Error b -> a = b
      | _ -> false)

let dist_uniform_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"dist: uniform = quadratic-merge oracle, bit for bit"
    QCheck.(map (List.map fst) arb_dist_pairs)
    (fun keys ->
      keys = [] || same_dist (B.Dist.to_list (B.Dist.uniform keys)) (Oracles.Dist.uniform keys))

let dist_negative_raises_property =
  QCheck.Test.make ~count:300 ~name:"dist: a negative weight raises, before and past the scan limit"
    QCheck.(pair arb_dist_pairs (pair small_nat (float_range 1e-9 3.0)))
    (fun (pairs, (at, w)) ->
      let at = at mod (List.length pairs + 1) in
      let before = List.filteri (fun i _ -> i < at) pairs
      and after = List.filteri (fun i _ -> i >= at) pairs in
      let pairs = before @ (([| 7.0 |], -.w) :: after) in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      raises (fun () -> B.Dist.of_list pairs) && raises (fun () -> Oracles.Dist.of_list pairs))

let test_dist_expect () =
  let d = B.Dist.of_list [ (1.0, 1.0); (3.0, 1.0) ] in
  check_float "expectation" 2.0 (B.Dist.expect Fun.id d)

let test_dist_bind_total_mass () =
  let d = B.Dist.uniform [ 0; 1; 2 ] in
  let d2 = B.Dist.bind d (fun x -> B.Dist.uniform [ x; x + 10 ]) in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (B.Dist.to_list d2) in
  check_float "mass 1" 1.0 total

let test_dist_product () =
  let d = B.Dist.product (B.Dist.bernoulli 0.5) (B.Dist.bernoulli 0.5) in
  check_float "(t,t) mass" 0.25 (B.Dist.mass d (true, true))

let test_dist_product_list () =
  let d = B.Dist.product_list [ B.Dist.uniform [ 0; 1 ]; B.Dist.uniform [ 0; 1; 2 ] ] in
  Alcotest.(check int) "support" 6 (List.length (B.Dist.support d));
  check_float "each" (1.0 /. 6.0) (B.Dist.mass d [ 1; 2 ])

let test_dist_tv_distance () =
  let a = B.Dist.uniform [ 0; 1 ] and b = B.Dist.return 0 in
  check_float "tv" 0.5 (B.Dist.tv_distance a b);
  check_float "tv self" 0.0 (B.Dist.tv_distance a a)

let test_dist_filter () =
  let d = B.Dist.uniform [ 0; 1; 2; 3 ] in
  (match B.Dist.filter (fun x -> x < 2) d with
  | None -> Alcotest.fail "conditioning should succeed"
  | Some c -> check_float "renormalized" 0.5 (B.Dist.mass c 0));
  Alcotest.(check bool) "zero-probability event" true (B.Dist.filter (fun x -> x > 5) d = None)

let test_dist_sample_support () =
  let rng = B.Prng.create 5 in
  let d = B.Dist.of_list [ (1, 0.3); (2, 0.7) ] in
  for _ = 1 to 200 do
    let x = B.Dist.sample rng d in
    Alcotest.(check bool) "in support" true (x = 1 || x = 2)
  done

let test_dist_sample_frequency () =
  let rng = B.Prng.create 6 in
  let d = B.Dist.of_list [ (1, 0.25); (2, 0.75) ] in
  let count = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if B.Dist.sample rng d = 2 then incr count
  done;
  let freq = float_of_int !count /. float_of_int n in
  Alcotest.(check bool) "frequency ~ 0.75" true (Float.abs (freq -. 0.75) < 0.02)

let test_dist_is_uniform () =
  Alcotest.(check bool) "uniform" true (B.Dist.is_uniform (B.Dist.uniform [ 1; 2; 3 ]));
  Alcotest.(check bool) "not uniform" false
    (B.Dist.is_uniform (B.Dist.of_list [ (1, 0.3); (2, 0.7) ]))

(* {1 Linalg} *)

let test_linalg_solve_2x2 () =
  match B.Linalg.solve [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] [| 5.0; 10.0 |] with
  | None -> Alcotest.fail "solvable system"
  | Some x ->
    check_float "x0" 1.0 x.(0);
    check_float "x1" 3.0 x.(1)

let test_linalg_singular () =
  Alcotest.(check bool) "singular detected" true
    (B.Linalg.solve [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 2.0 |] = None)

let test_linalg_identity () =
  let id = B.Linalg.identity 3 in
  let v = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-12))) "Iv = v" v (B.Linalg.mat_vec id v)

let test_linalg_transpose_involution () =
  let m = [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check bool) "transpose^2 = id" true (B.Linalg.transpose (B.Linalg.transpose m) = m)

let linalg_solve_property =
  QCheck.Test.make ~count:100 ~name:"linalg: solve returns a solution"
    QCheck.(
      pair
        (array_of_size (Gen.return 3) (array_of_size (Gen.return 3) (float_range (-10.0) 10.0)))
        (array_of_size (Gen.return 3) (float_range (-10.0) 10.0)))
    (fun (a, b) ->
      match B.Linalg.solve a b with
      | None -> true (* singular is a legal answer *)
      | Some x ->
        let b' = B.Linalg.mat_vec a x in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) b b')

(* {1 Combin} *)

let test_combin_subset_counts () =
  List.iter
    (fun (n, k) ->
      Alcotest.(check int)
        (Printf.sprintf "C(%d,%d)" n k)
        (B.Combin.binomial n k)
        (List.length (B.Combin.subsets_of_size n k)))
    [ (5, 0); (5, 1); (5, 2); (5, 5); (6, 3); (7, 4) ]

let test_combin_subsets_up_to () =
  (* Sum of C(5,1) + C(5,2) = 5 + 10 *)
  Alcotest.(check int) "non-empty subsets <= 2" 15 (List.length (B.Combin.subsets_up_to 5 2))

let test_combin_subsets_sorted_distinct () =
  List.iter
    (fun s ->
      let sorted = List.sort_uniq compare s in
      Alcotest.(check (list int)) "sorted distinct" sorted s)
    (B.Combin.subsets_up_to 6 3)

let test_combin_profiles () =
  Alcotest.(check int) "2x3x2 profiles" 12 (List.length (B.Combin.profiles [| 2; 3; 2 |]));
  Alcotest.(check int) "empty dims" 1 (List.length (B.Combin.profiles [||]))

let test_combin_profiles_distinct () =
  let ps = B.Combin.profiles [| 3; 3 |] in
  Alcotest.(check int) "all distinct" (List.length ps)
    (List.length (List.sort_uniq compare ps))

let test_combin_joint_assignments () =
  let dims = [| 2; 3; 2 |] in
  Alcotest.(check int) "coalition {0,2}" 4
    (List.length (B.Combin.joint_assignments [ 0; 2 ] dims));
  Alcotest.(check int) "coalition {1}" 3 (List.length (B.Combin.joint_assignments [ 1 ] dims))

(* {1 Stats} *)

let test_stats_mean_median () =
  check_float "mean" 2.5 (B.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median even" 2.5 (B.Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 3.0 (B.Stats.median [ 5.0; 1.0; 3.0 ])

let test_stats_variance () =
  check_float "variance" 2.0 (B.Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  check_float "stddev" (sqrt 2.0) (B.Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  check_float "p50" 50.0 (B.Stats.percentile 50.0 xs);
  check_float "p0" 0.0 (B.Stats.percentile 0.0 xs);
  check_float "p100" 100.0 (B.Stats.percentile 100.0 xs)

let test_stats_gini () =
  check_float "equal distribution" 0.0 (B.Stats.gini [ 1.0; 1.0; 1.0; 1.0 ]);
  let concentrated = B.Stats.gini [ 0.0; 0.0; 0.0; 10.0 ] in
  Alcotest.(check bool) "concentrated high" true (concentrated > 0.7)

let test_stats_histogram () =
  let h = B.Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "total count" 4 (c0 + c1)

(* {1 Tab} *)

let test_tab_render () =
  let t = B.Tab.create ~title:"demo" [ "col1"; "c2" ] in
  B.Tab.add_row t [ "a"; "bbbb" ];
  B.Tab.add_float_row t "row" [ 1.5; 2.0 ];
  let s = B.Tab.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains float" true (contains s "1.5000")

let suite =
  [
    Alcotest.test_case "prng: determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng: seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng: split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng: copy" `Quick test_prng_copy;
    Alcotest.test_case "prng: float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng: int range" `Quick test_prng_int_range;
    Alcotest.test_case "prng: invalid bound" `Quick test_prng_int_invalid;
    Alcotest.test_case "prng: shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng: known answers" `Quick test_prng_known_answers;
    Alcotest.test_case "prng: uniformity" `Slow test_prng_uniformity;
    Alcotest.test_case "dist: normalizes" `Quick test_dist_normalizes;
    Alcotest.test_case "dist: merges duplicates" `Quick test_dist_merges_duplicates;
    Alcotest.test_case "dist: rejects empty" `Quick test_dist_empty_rejected;
    Alcotest.test_case "dist: rejects negative" `Quick test_dist_negative_rejected;
    QCheck_alcotest.to_alcotest dist_of_list_matches_oracle;
    QCheck_alcotest.to_alcotest dist_uniform_matches_oracle;
    QCheck_alcotest.to_alcotest dist_negative_raises_property;
    Alcotest.test_case "dist: expectation" `Quick test_dist_expect;
    Alcotest.test_case "dist: bind mass" `Quick test_dist_bind_total_mass;
    Alcotest.test_case "dist: product" `Quick test_dist_product;
    Alcotest.test_case "dist: product_list" `Quick test_dist_product_list;
    Alcotest.test_case "dist: tv distance" `Quick test_dist_tv_distance;
    Alcotest.test_case "dist: filter" `Quick test_dist_filter;
    Alcotest.test_case "dist: sample support" `Quick test_dist_sample_support;
    Alcotest.test_case "dist: sample frequency" `Slow test_dist_sample_frequency;
    Alcotest.test_case "dist: is_uniform" `Quick test_dist_is_uniform;
    Alcotest.test_case "linalg: 2x2" `Quick test_linalg_solve_2x2;
    Alcotest.test_case "linalg: singular" `Quick test_linalg_singular;
    Alcotest.test_case "linalg: identity" `Quick test_linalg_identity;
    Alcotest.test_case "linalg: transpose involution" `Quick test_linalg_transpose_involution;
    QCheck_alcotest.to_alcotest linalg_solve_property;
    Alcotest.test_case "combin: subset counts" `Quick test_combin_subset_counts;
    Alcotest.test_case "combin: subsets up to" `Quick test_combin_subsets_up_to;
    Alcotest.test_case "combin: sorted distinct" `Quick test_combin_subsets_sorted_distinct;
    Alcotest.test_case "combin: profiles" `Quick test_combin_profiles;
    Alcotest.test_case "combin: profiles distinct" `Quick test_combin_profiles_distinct;
    Alcotest.test_case "combin: joint assignments" `Quick test_combin_joint_assignments;
    Alcotest.test_case "stats: mean/median" `Quick test_stats_mean_median;
    Alcotest.test_case "stats: variance" `Quick test_stats_variance;
    Alcotest.test_case "stats: percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats: gini" `Quick test_stats_gini;
    Alcotest.test_case "stats: histogram" `Quick test_stats_histogram;
    Alcotest.test_case "tab: render" `Quick test_tab_render;
  ]
