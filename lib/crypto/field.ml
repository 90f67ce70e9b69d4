let p = 2147483647

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = if a >= b then a - b else a - b + p

(* p = 2^31 - 1, so 2^31 = 1 (mod p): a product q < 2^62 is congruent to
   the sum of its high and low 31-bit halves, which is below 2p. It
   reaches p only when q is a nonzero multiple of p, which no product of
   two elements of [0, p) is, so one conditional subtraction reduces it. *)
let mul a b =
  let q = a * b in
  let r = (q land p) + (q lsr 31) in
  if r >= p then r - p else r

let neg a = if a = 0 then 0 else p - a

let rec pow x e =
  if e = 0 then 1
  else begin
    let half = pow x (e / 2) in
    let sq = mul half half in
    if e land 1 = 1 then mul sq x else sq
  end

(* Extended Euclid on (p, x), keeping only the coefficient of x: r = t x
   (mod p) holds for both rows, and |t| < p. A few steps for the small
   differences of share x values, where Fermat's x^(p-2) always costs ~60
   multiplications. *)
let inv x =
  if x = 0 then raise Division_by_zero;
  let r0 = ref p and r1 = ref x and t0 = ref 0 and t1 = ref 1 in
  while !r1 <> 0 do
    let q = !r0 / !r1 in
    let r2 = !r0 - (q * !r1) and t2 = !t0 - (q * !t1) in
    r0 := !r1;
    r1 := r2;
    t0 := !t1;
    t1 := t2
  done;
  if !t0 < 0 then !t0 + p else !t0

let div a b = mul a (inv b)

let random rng = Bn_util.Prng.int rng p

let rec random_nonzero rng =
  let x = random rng in
  if x = 0 then random_nonzero rng else x
