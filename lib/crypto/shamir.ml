type share = { x : int; y : int }

let share rng ~secret ~threshold ~n =
  if threshold < 0 || threshold >= n then invalid_arg "Shamir.share: need 0 <= threshold < n";
  let f = Poly.random rng ~degree:threshold ~secret in
  List.init n (fun i ->
      let x = i + 1 in
      { x; y = Poly.eval f x })

let reconstruct shares =
  let points = List.map (fun { x; y } -> (x, y)) shares in
  Poly.eval (Poly.interpolate points) 0

let rec x_absent x = function [] -> true | s :: rest -> s.x <> x && x_absent x rest
let rec distinct_xs = function [] -> true | s :: rest -> x_absent s.x rest && distinct_xs rest

(* The secret of the polynomial of degree <= d through the first d + 1
   shares, if every share lies on it. The shares' x values must be
   distinct. Newton form: [c] holds the divided differences over the
   nodes [xs]. *)
let agreed_secret d shares =
  let xs = Array.make (d + 1) 0 and c = Array.make (d + 1) 0 in
  let rec take i = function
    | { x; y } :: rest when i <= d ->
      xs.(i) <- x;
      c.(i) <- y;
      take (i + 1) rest
    | rest -> rest
  in
  let rest = take 0 shares in
  for j = 1 to d do
    for i = d downto j do
      c.(i) <- Field.div (Field.sub c.(i) c.(i - 1)) (Field.sub xs.(i) xs.(i - j))
    done
  done;
  let eval x =
    let acc = ref c.(d) in
    for i = d - 1 downto 0 do
      acc := Field.add c.(i) (Field.mul (Field.sub x xs.(i)) !acc)
    done;
    !acc
  in
  if List.for_all (fun { x; y } -> eval x = y) rest then Some (eval 0) else None

(* Berlekamp–Welch: find monic E of degree e and Q of degree <= e + d with
   Q(x_i) = y_i * E(x_i) for all i; then f = Q / E. Unknowns: e coefficients
   of E (the top one is fixed to 1) and e + d + 1 coefficients of Q. A
   share's row is sum_{j<e} E_j x^j y - sum_{k<nq} Q_k x^k = -y x^e, built
   from running powers of x. *)
let berlekamp_welch ~d ~e shares =
  let nq = d + e + 1 in
  let rows = List.length shares in
  let a = Array.make rows [||] and b = Array.make rows 0 in
  List.iteri
    (fun i { x; y } ->
      let row = Array.make (e + nq) 0 in
      let pw = ref 1 in
      for k = 0 to nq - 1 do
        if k < e then row.(k) <- Field.mul y !pw;
        if k = e then b.(i) <- Field.neg (Field.mul y !pw);
        row.(e + k) <- Field.neg !pw;
        pw := Field.mul !pw x
      done;
      a.(i) <- row)
    shares;
  match Fieldmat.solve a b with
  | None -> None
  | Some sol ->
    let epoly = Array.init (e + 1) (fun j -> if j = e then 1 else sol.(j)) in
    let qpoly = Array.init nq (fun k -> sol.(e + k)) in
    let q, r = Poly.divmod qpoly epoly in
    if Poly.degree r >= 0 then None
    else begin
      (* Verify: at most e disagreements with the decoded polynomial. *)
      let errors = List.length (List.filter (fun { x; y } -> Poly.eval q x <> y) shares) in
      if errors <= e && Poly.degree q <= d then Some (Poly.eval q 0) else None
    end

(* Exact repeats of a share carry no information; two shares at one x with
   different y values fit no polynomial. *)
let dedupe shares =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | s :: rest -> (
      match List.find_opt (fun s' -> s'.x = s.x) acc with
      | None -> go (s :: acc) rest
      | Some s' -> if s'.y = s.y then go acc rest else None)
  in
  go [] shares

(* Fast path: when the x values are distinct and every share lies on the
   interpolant of the first d + 1, that polynomial is the answer. With
   e = 0 this is the definition; with e > 0 and n >= d + 2e + 1, every
   solution (E, Q) of the Berlekamp–Welch system then has Q = f E, since
   Q - f E has degree <= d + e and n > d + e roots, so the system would
   return the same secret. Otherwise the system decides. *)
let robust_reconstruct ~degree:d ~max_errors:e shares =
  if d < 0 || e < 0 then invalid_arg "Shamir.robust_reconstruct: need degree, max_errors >= 0";
  if List.length shares < d + (2 * e) + 1 then None
  else if distinct_xs shares then
    match agreed_secret d shares with
    | Some _ as secret -> secret
    | None -> if e = 0 then None else berlekamp_welch ~d ~e shares
  else if e = 0 then
    match dedupe shares with
    | Some distinct when List.length distinct > d -> agreed_secret d distinct
    | Some _ | None -> None
  else berlekamp_welch ~d ~e shares

let verify_consistent ~degree shares =
  match shares with
  | [] -> true
  | _ ->
    let points = List.map (fun { x; y } -> (x, y)) shares in
    let f = Poly.interpolate points in
    Poly.degree f <= degree
