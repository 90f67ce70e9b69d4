(* The SplitMix64 counter lives unboxed in an 8-byte buffer, read and
   written with the native-endian 64-bit bytes primitives, and [next] and
   [mix] are inlined into each draw: every intermediate Int64 stays in a
   register, so [int] and [bool] allocate nothing. A mutable int64 record
   field would hold a boxed Int64, and each write would allocate one. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state z =
  let t = Bytes.create 8 in
  set64 t 0 z;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer: xor-shift / multiply avalanche of the counter. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  mix z

let bits64 t = next t

(* Indexed split: the child's state is a pure avalanche of (state, i), so
   it neither advances the parent nor depends on how many siblings were
   split before it — the property that makes parallel Monte Carlo loops
   bit-identical for any domain count. The double mix (with a xor of a
   second odd constant in between) keeps child streams disjoint from the
   parent's own SplitMix64 counter stream. *)
let split t i =
  let z = Int64.add (get64 t 0) (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  of_state (mix (Int64.logxor (mix z) 0xA5A5B4E1D3C2F687L))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t =
  (* 53 high-quality bits into the mantissa. *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Prng.exponential: lambda must be positive";
  -.log (1.0 -. float t) /. lambda

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
