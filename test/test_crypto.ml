module C = Beyond_nash
module F = C.Field
module P = C.Poly
module S = C.Shamir
module H = C.Hashing

let field_elt = QCheck.int_range 0 (F.p - 1)

(* {1 Field axioms} *)

let field_add_inverse =
  QCheck.Test.make ~count:200 ~name:"field: x + (-x) = 0" field_elt (fun x ->
      F.add x (F.neg x) = 0)

let field_mul_inverse =
  QCheck.Test.make ~count:200 ~name:"field: x * x^-1 = 1 (x != 0)" field_elt (fun x ->
      x = 0 || F.mul x (F.inv x) = 1)

let field_distributive =
  QCheck.Test.make ~count:200 ~name:"field: distributivity"
    QCheck.(triple field_elt field_elt field_elt)
    (fun (a, b, c) -> F.mul a (F.add b c) = F.add (F.mul a b) (F.mul a c))

let field_pow_matches_mul =
  QCheck.Test.make ~count:100 ~name:"field: pow 3 = x*x*x" field_elt (fun x ->
      F.pow x 3 = F.mul x (F.mul x x))

(* Field.mul reduces by shift-and-add; the oracle divides. Edge values are
   drawn often so 0, 1 and p - 1 meet every other value. *)
let field_elt_edgy =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ 0; 1; F.p - 1; F.p - 2; 1 lsl 30; (1 lsl 30) + 1 ]);
          (1, int_range 2 20);
          (3, int_range 0 (F.p - 1));
        ])

let field_mul_matches_mod =
  QCheck.Test.make ~count:5000 ~name:"field: mul = a * b mod p on [0, p)^2"
    QCheck.(pair field_elt_edgy field_elt_edgy)
    (fun (a, b) -> F.mul a b = Oracles.Crypto.mul a b)

let field_inv_matches_fermat =
  QCheck.Test.make ~count:2000 ~name:"field: inv = x^(p-2) (Euclid = Fermat)" field_elt_edgy
    (fun x -> x = 0 || F.inv x = Oracles.Crypto.inv x)

let test_field_mul_edges () =
  let edges = [ 0; 1; 2; F.p - 2; F.p - 1 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) (Printf.sprintf "%d * %d" a b) (a * b mod F.p) (F.mul a b))
        edges)
    edges;
  Alcotest.(check int) "(p-1)^2 = 1" 1 (F.mul (F.p - 1) (F.p - 1))

let test_field_of_int_negative () =
  Alcotest.(check int) "canonical negative" (F.p - 5) (F.of_int (-5))

let test_field_inv_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (F.inv 0))

let test_field_fermat () =
  Alcotest.(check int) "a^(p-1) = 1" 1 (F.pow 123456789 (F.p - 1))

(* {1 Polynomials} *)

let test_poly_eval_horner () =
  (* 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38 *)
  Alcotest.(check int) "eval" 38 (P.eval [| 3; 2; 1 |] 5)

let test_poly_degree () =
  Alcotest.(check int) "zero poly" (-1) (P.degree [| 0; 0 |]);
  Alcotest.(check int) "trailing zeros" 1 (P.degree [| 1; 2; 0; 0 |])

let poly_add_eval =
  QCheck.Test.make ~count:100 ~name:"poly: eval(a+b) = eval a + eval b"
    QCheck.(triple (array_of_size (Gen.return 4) field_elt) (array_of_size (Gen.return 3) field_elt) field_elt)
    (fun (a, b, x) -> P.eval (P.add a b) x = F.add (P.eval a x) (P.eval b x))

let poly_mul_eval =
  QCheck.Test.make ~count:100 ~name:"poly: eval(a*b) = eval a * eval b"
    QCheck.(triple (array_of_size (Gen.return 3) field_elt) (array_of_size (Gen.return 3) field_elt) field_elt)
    (fun (a, b, x) -> P.eval (P.mul a b) x = F.mul (P.eval a x) (P.eval b x))

let poly_divmod_roundtrip =
  QCheck.Test.make ~count:100 ~name:"poly: a = q*b + r with deg r < deg b"
    QCheck.(pair (array_of_size (Gen.return 5) field_elt) (array_of_size (Gen.return 3) field_elt))
    (fun (a, b) ->
      if P.degree b < 0 then true
      else begin
        let q, r = P.divmod a b in
        P.degree r < P.degree b && P.equal a (P.add (P.mul q b) r)
      end)

let test_poly_interpolate_exact () =
  let f = [| 7; 0; 2 |] in
  (* 7 + 2x^2 *)
  let points = List.map (fun x -> (x, P.eval f x)) [ 1; 2; 3 ] in
  Alcotest.(check bool) "recovers" true (P.equal f (P.interpolate points))

let test_poly_interpolate_duplicate () =
  Alcotest.check_raises "duplicate x" (Invalid_argument "Poly.interpolate: duplicate x-coordinates")
    (fun () -> ignore (P.interpolate [ (1, 2); (1, 3) ]))

let poly_random_has_secret =
  QCheck.Test.make ~count:50 ~name:"poly: random polynomial has the secret at 0"
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (secret, degree) ->
      let rng = C.Prng.create (secret + (degree * 1000)) in
      let f = P.random rng ~degree ~secret in
      P.eval f 0 = F.of_int secret && P.degree f = degree)

(* {1 Shamir} *)

let shamir_roundtrip =
  QCheck.Test.make ~count:50 ~name:"shamir: any threshold+1 shares reconstruct"
    QCheck.(triple (int_range 0 100000) (int_range 1 4) (int_range 0 100))
    (fun (secret, threshold, seed) ->
      let n = threshold + 3 in
      let rng = C.Prng.create seed in
      let shares = S.share rng ~secret ~threshold ~n in
      (* take the first threshold+1 shares *)
      let subset = List.filteri (fun i _ -> i <= threshold) shares in
      S.reconstruct subset = F.of_int secret)

let test_shamir_invalid_threshold () =
  let rng = C.Prng.create 1 in
  Alcotest.check_raises "threshold >= n" (Invalid_argument "Shamir.share: need 0 <= threshold < n")
    (fun () -> ignore (S.share rng ~secret:1 ~threshold:5 ~n:5))

let test_shamir_consistency_check () =
  let rng = C.Prng.create 2 in
  let shares = S.share rng ~secret:42 ~threshold:2 ~n:6 in
  Alcotest.(check bool) "clean shares consistent" true (S.verify_consistent ~degree:2 shares);
  let corrupted =
    List.mapi (fun i s -> if i = 0 then { s with S.y = F.add s.S.y 1 } else s) shares
  in
  Alcotest.(check bool) "corruption detected" false (S.verify_consistent ~degree:2 corrupted)

let berlekamp_welch_property =
  QCheck.Test.make ~count:50 ~name:"shamir: Berlekamp-Welch corrects up to e errors"
    QCheck.(triple (int_range 0 100000) (int_range 1 2) (int_range 0 1000))
    (fun (secret, e, seed) ->
      let degree = 2 in
      let n = degree + (2 * e) + 1 in
      let rng = C.Prng.create seed in
      let shares = S.share rng ~secret ~threshold:degree ~n in
      let corrupted =
        List.mapi (fun i s -> if i < e then { s with S.y = F.add s.S.y (1 + (seed mod 97)) } else s) shares
      in
      S.robust_reconstruct ~degree ~max_errors:e corrupted = Some (F.of_int secret))

let test_bw_too_many_errors () =
  let rng = C.Prng.create 3 in
  let shares = S.share rng ~secret:99 ~threshold:2 ~n:7 in
  (* 3 errors but bound allows 2: decoding must not return a wrong value
     silently — either None or (unlikely here) the right value. *)
  let corrupted =
    List.mapi (fun i s -> if i < 3 then { s with S.y = F.add s.S.y 17 } else s) shares
  in
  match S.robust_reconstruct ~degree:2 ~max_errors:2 corrupted with
  | None -> ()
  | Some v -> Alcotest.(check int) "if it decodes, it must be right or detected" 99 v

let test_bw_insufficient_shares () =
  let rng = C.Prng.create 4 in
  let shares = S.share rng ~secret:1 ~threshold:2 ~n:4 in
  Alcotest.(check bool) "n < d + 2e + 1 refused" true
    (S.robust_reconstruct ~degree:2 ~max_errors:1 shares = None)

(* The four repeated-share cases: shares of 42 at degree 1, n = 4, with
   the first share listed twice, as an exact repeat or with another y. *)
let test_bw_repeated_share () =
  let shares = S.share (C.Prng.create 6) ~secret:42 ~threshold:1 ~n:4 in
  let first = List.hd shares in
  let exact = first :: shares in
  let clash = { first with S.y = F.add first.S.y 1 } :: shares in
  let decode e l = S.robust_reconstruct ~degree:1 ~max_errors:e l in
  Alcotest.(check (option int)) "e = 0, exact repeat" (Some 42) (decode 0 exact);
  Alcotest.(check (option int)) "e = 0, two ys at one x" None (decode 0 clash);
  Alcotest.(check (option int)) "e = 1, exact repeat" (Some 42) (decode 1 exact);
  Alcotest.(check (option int)) "e = 1, two ys at one x" (Some 42) (decode 1 clash);
  (* The exact repeat must not count toward the d + 1 distinct points. *)
  Alcotest.(check (option int)) "e = 0, one distinct x for degree 1" None
    (decode 0 [ first; first ])

(* A random decoding problem: degree 0-3, max_errors 0-3, 1-11 shares of a
   random polynomial at distinct x in [0, 12], some corrupted, sometimes
   with a share repeated exactly or with another y. *)
let bw_case seed =
  let rng = C.Prng.create seed in
  let d = C.Prng.int rng 4 and e = C.Prng.int rng 4 in
  let n = 1 + C.Prng.int rng 11 in
  let f = P.random rng ~degree:d ~secret:(C.Prng.int rng 1000) in
  let xs = Array.init 13 Fun.id in
  C.Prng.shuffle rng xs;
  let corrupt_p = C.Prng.float rng *. 0.5 in
  let shares =
    List.init n (fun i ->
        let x = xs.(i) in
        let y = P.eval f x in
        let y = if C.Prng.float rng < corrupt_p then F.add y (1 + C.Prng.int rng 5) else y in
        { S.x; y })
  in
  let shares =
    match C.Prng.int rng 4 with
    | 0 ->
      let s = List.nth shares (C.Prng.int rng n) in
      let s = if C.Prng.bool rng then s else { s with S.y = F.random rng } in
      let k = C.Prng.int rng (n + 1) in
      List.filteri (fun i _ -> i < k) shares @ (s :: List.filteri (fun i _ -> i >= k) shares)
    | _ -> shares
  in
  (d, e, shares)

(* With max_errors = 0 the oracle interpolates every share and raises on a
   repeated x; the library drops exact repeats and refuses a clash. *)
let bw_expected d e shares =
  match Oracles.Crypto.robust_reconstruct ~degree:d ~max_errors:e shares with
  | r -> r
  | exception Invalid_argument _ ->
    let rec dedupe acc = function
      | [] -> Some (List.rev acc)
      | (s : S.share) :: rest -> (
        match List.find_opt (fun (s' : S.share) -> s'.S.x = s.S.x) acc with
        | None -> dedupe (s :: acc) rest
        | Some s' -> if s'.S.y = s.S.y then dedupe acc rest else None)
    in
    Option.bind (dedupe [] shares) (Oracles.Crypto.robust_reconstruct ~degree:d ~max_errors:0)

let bw_matches_oracle =
  QCheck.Test.make ~count:3000 ~name:"shamir: robust_reconstruct = list-era decoder"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let d, e, shares = bw_case seed in
      S.robust_reconstruct ~degree:d ~max_errors:e shares = bw_expected d e shares)

let fieldmat_matches_oracle =
  QCheck.Test.make ~count:1000 ~name:"fieldmat: in-place solve = row-copying solve"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let rng = C.Prng.create seed in
      let rows = 1 + C.Prng.int rng 7 and cols = 1 + C.Prng.int rng 7 in
      (* Small entries make rank-deficient and inconsistent systems common. *)
      let entry () = if C.Prng.bool rng then C.Prng.int rng 3 else F.random rng in
      let a = Array.init rows (fun _ -> Array.init cols (fun _ -> entry ())) in
      let b = Array.init rows (fun _ -> entry ()) in
      C.Fieldmat.solve a b = Oracles.Crypto.solve a b)

(* {1 Hashing, commitments, PKI} *)

let test_hash_deterministic () =
  Alcotest.(check int64) "equal inputs" (H.hash "abc") (H.hash "abc");
  Alcotest.(check bool) "different inputs" true (H.hash "abc" <> H.hash "abd")

let test_hash_ints_framing () =
  Alcotest.(check bool) "framing distinguishes [1;23] from [12;3]" true
    (H.hash_ints [ 1; 23 ] <> H.hash_ints [ 12; 3 ])

(* {1 Commitments and signatures against Printf}

   The library folds each field's decimal spelling into the hash; the
   oracle formats the string with Printf and hashes it. *)

let edge_ints = [ 0; 1; -1; 9; -9; 10; -10; 11; -11; 99; 100; -100; 999_999_999; min_int; max_int ]

let edge_secrets =
  [ 0L; 1L; -1L; 9L; -9L; 10L; -10L; 11L; -11L; 0x7FFFFFFFL; Int64.of_int min_int;
    Int64.of_int max_int; Int64.min_int; Int64.max_int ]

let edge_msgs =
  [ ""; "|"; "||"; "a|b"; "0"; "0123456789"; "-5"; "\xc3\xa9t\xc3\xa9"; "\xff\x00\x80" ]

let test_commit_matches_printf () =
  List.iter
    (fun value ->
      List.iter
        (fun nonce ->
          Alcotest.(check int64)
            (Printf.sprintf "commit %d %d" value nonce)
            (Oracles.Hashing.commit ~value ~nonce)
            (H.Commit.commit ~value ~nonce))
        edge_ints)
    edge_ints

let test_sign_matches_printf () =
  let pki = H.Pki.of_secrets (Array.of_list edge_secrets) in
  List.iteri
    (fun signer secret ->
      List.iter
        (fun msg ->
          Alcotest.(check int64)
            (Printf.sprintf "sign %Ld %S" secret msg)
            (Oracles.Hashing.sign ~secret ~msg)
            (H.Pki.sign pki ~signer ~msg))
        edge_msgs)
    edge_secrets

let commit_property =
  QCheck.Test.make ~count:500 ~name:"commit = hash of its Printf string"
    QCheck.(pair int int)
    (fun (value, nonce) ->
      Int64.equal (H.Commit.commit ~value ~nonce) (Oracles.Hashing.commit ~value ~nonce))

let sign_property =
  QCheck.Test.make ~count:500 ~name:"sign = hash of its Printf string"
    QCheck.(pair int64 string)
    (fun (secret, msg) ->
      let pki = H.Pki.of_secrets [| secret |] in
      Int64.equal (H.Pki.sign pki ~signer:0 ~msg) (Oracles.Hashing.sign ~secret ~msg))

let hash_property =
  QCheck.Test.make ~count:500 ~name:"hash = String.iter oracle" QCheck.string (fun s ->
      Int64.equal (H.hash s) (Oracles.Hashing.hash s))

let test_pki_create_signs_with_drawn_secrets () =
  (* [create] draws one secret per player from the stream, in order. *)
  let rng = C.Prng.create 7 in
  let drawn = C.Prng.copy rng in
  let pki = H.Pki.create rng ~n:4 in
  for signer = 0 to 3 do
    let secret = C.Prng.bits64 drawn in
    Alcotest.(check int64) "sign with the drawn secret"
      (Oracles.Hashing.sign ~secret ~msg:"round 1|v=0")
      (H.Pki.sign pki ~signer ~msg:"round 1|v=0")
  done

let test_commit_verify () =
  let c = H.Commit.commit ~value:42 ~nonce:777 in
  Alcotest.(check bool) "verifies" true (H.Commit.verify c ~value:42 ~nonce:777);
  Alcotest.(check bool) "wrong value" false (H.Commit.verify c ~value:43 ~nonce:777);
  Alcotest.(check bool) "wrong nonce" false (H.Commit.verify c ~value:42 ~nonce:778)

let test_pki () =
  let rng = C.Prng.create 5 in
  let pki = H.Pki.create rng ~n:3 in
  let s = H.Pki.sign pki ~signer:0 ~msg:"m" in
  Alcotest.(check bool) "verify own" true (H.Pki.verify pki ~signer:0 ~msg:"m" s);
  Alcotest.(check bool) "not other signer" false (H.Pki.verify pki ~signer:1 ~msg:"m" s);
  Alcotest.(check bool) "not other msg" false (H.Pki.verify pki ~signer:0 ~msg:"m2" s);
  Alcotest.(check bool) "forgery fails" false
    (H.Pki.verify pki ~signer:0 ~msg:"m" (H.Pki.forge_attempt rng))

(* {1 Field matrices} *)

let test_fieldmat_solve () =
  (* 2x + y = 5; x + y = 3 -> x = 2, y = 1 *)
  match C.Fieldmat.solve [| [| 2; 1 |]; [| 1; 1 |] |] [| 5; 3 |] with
  | Some x ->
    Alcotest.(check int) "x" 2 x.(0);
    Alcotest.(check int) "y" 1 x.(1)
  | None -> Alcotest.fail "solvable"

let test_fieldmat_inconsistent () =
  Alcotest.(check bool) "inconsistent" true
    (C.Fieldmat.solve [| [| 1; 1 |]; [| 1; 1 |] |] [| 1; 2 |] = None)

let test_fieldmat_rank () =
  Alcotest.(check int) "full rank" 2 (C.Fieldmat.rank [| [| 1; 0 |]; [| 0; 1 |] |]);
  Alcotest.(check int) "rank 1" 1 (C.Fieldmat.rank [| [| 1; 2 |]; [| 2; 4 |] |])

let suite =
  [
    QCheck_alcotest.to_alcotest field_add_inverse;
    QCheck_alcotest.to_alcotest field_mul_inverse;
    QCheck_alcotest.to_alcotest field_distributive;
    QCheck_alcotest.to_alcotest field_pow_matches_mul;
    QCheck_alcotest.to_alcotest field_mul_matches_mod;
    Alcotest.test_case "field: mul at 0, 1, p-1" `Quick test_field_mul_edges;
    QCheck_alcotest.to_alcotest field_inv_matches_fermat;
    Alcotest.test_case "field: of_int negative" `Quick test_field_of_int_negative;
    Alcotest.test_case "field: inv zero" `Quick test_field_inv_zero;
    Alcotest.test_case "field: Fermat" `Quick test_field_fermat;
    Alcotest.test_case "poly: eval" `Quick test_poly_eval_horner;
    Alcotest.test_case "poly: degree" `Quick test_poly_degree;
    QCheck_alcotest.to_alcotest poly_add_eval;
    QCheck_alcotest.to_alcotest poly_mul_eval;
    QCheck_alcotest.to_alcotest poly_divmod_roundtrip;
    Alcotest.test_case "poly: interpolate" `Quick test_poly_interpolate_exact;
    Alcotest.test_case "poly: duplicate x" `Quick test_poly_interpolate_duplicate;
    QCheck_alcotest.to_alcotest poly_random_has_secret;
    QCheck_alcotest.to_alcotest shamir_roundtrip;
    Alcotest.test_case "shamir: invalid threshold" `Quick test_shamir_invalid_threshold;
    Alcotest.test_case "shamir: consistency" `Quick test_shamir_consistency_check;
    QCheck_alcotest.to_alcotest berlekamp_welch_property;
    Alcotest.test_case "BW: too many errors" `Quick test_bw_too_many_errors;
    Alcotest.test_case "BW: insufficient shares" `Quick test_bw_insufficient_shares;
    Alcotest.test_case "BW: repeated share" `Quick test_bw_repeated_share;
    QCheck_alcotest.to_alcotest bw_matches_oracle;
    QCheck_alcotest.to_alcotest fieldmat_matches_oracle;
    Alcotest.test_case "hash: deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "hash: framing" `Quick test_hash_ints_framing;
    Alcotest.test_case "commit: edge values = Printf oracle" `Quick test_commit_matches_printf;
    Alcotest.test_case "sign: edge secrets and messages = Printf oracle" `Quick
      test_sign_matches_printf;
    Alcotest.test_case "sign: created keys = Printf oracle" `Quick
      test_pki_create_signs_with_drawn_secrets;
    QCheck_alcotest.to_alcotest commit_property;
    QCheck_alcotest.to_alcotest sign_property;
    QCheck_alcotest.to_alcotest hash_property;
    Alcotest.test_case "commitments" `Quick test_commit_verify;
    Alcotest.test_case "pki" `Quick test_pki;
    Alcotest.test_case "fieldmat: solve" `Quick test_fieldmat_solve;
    Alcotest.test_case "fieldmat: inconsistent" `Quick test_fieldmat_inconsistent;
    Alcotest.test_case "fieldmat: rank" `Quick test_fieldmat_rank;
  ]
