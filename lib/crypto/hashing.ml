let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let avalanche z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The FNV-1a state is folded through [@inline] helpers so that, in each
   function below, it lives in one unboxed mutable local: a helper called
   for real would box the Int64 it takes and returns. *)

let[@inline] byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let[@inline] bytes h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* The bytes [Printf] prints for [x] under [%Ld] (and, for an [int]
   widened by [Int64.of_int], under [%d]): a '-' if negative, then the
   decimal digits with no padding. The digits are taken from [q = -|x|],
   which exists for [Int64.min_int] too, most significant first: [p] is
   the largest power of ten at most [|x|], and each digit is [q / p]. *)
let[@inline] decimal h x =
  let h = ref (if Int64.compare x 0L < 0 then byte h (Char.code '-') else h) in
  let q = ref (if Int64.compare x 0L < 0 then x else Int64.neg x) in
  let p = ref 1L in
  let top = Int64.neg (Int64.div !q 10L) in
  while Int64.compare !p top <= 0 do
    p := Int64.mul !p 10L
  done;
  while Int64.compare !p 0L > 0 do
    let d = Int64.div !q !p in
    h := byte !h (Char.code '0' - Int64.to_int d);
    q := Int64.sub !q (Int64.mul d !p);
    p := Int64.div !p 10L
  done;
  !h

let hash s = avalanche (bytes fnv_offset s)

let hash_ints ints =
  hash (String.concat "," (List.map string_of_int ints))

module Commit = struct
  type t = int64

  (* hash "commit|<value>|<nonce>", with the string never built. *)
  let commit ~value ~nonce =
    let h = bytes fnv_offset "commit|" in
    let h = decimal h (Int64.of_int value) in
    let h = byte h (Char.code '|') in
    avalanche (decimal h (Int64.of_int nonce))

  let verify c ~value ~nonce = Int64.equal c (commit ~value ~nonce)
end

module Pki = struct
  type t = { secrets : int64 array }
  type signature = int64

  let create rng ~n = { secrets = Array.init n (fun _ -> Bn_util.Prng.bits64 rng) }
  let of_secrets secrets = { secrets = Array.copy secrets }

  (* hash "sig|<secret>|<msg>", with the string never built. *)
  let sign t ~signer ~msg =
    let h = bytes fnv_offset "sig|" in
    let h = decimal h t.secrets.(signer) in
    let h = byte h (Char.code '|') in
    avalanche (bytes h msg)

  let verify t ~signer ~msg s = Int64.equal s (sign t ~signer ~msg)

  let forge_attempt rng = Bn_util.Prng.bits64 rng
end
