(* Struct-of-arrays agent store: flat Bigarray columns per field, a
   balanced contiguous shard partition, and per-(src,dst) cross-shard
   event buffers replayed in lexicographic order. See soa.mli for the
   determinism contract. *)

(* {1 Shard partition} *)

type part = { n : int; shards : int; quot : int; rem : int; big : int }
(* Shard s covers [lo, hi) with the first [rem] shards one agent larger:
   sizes are quot+1 for s < rem and quot otherwise, and agent [big] is
   the first agent of the smaller shards. *)

let partition ~n ~shards =
  if n < 0 then invalid_arg "Soa.partition: n < 0";
  if shards < 1 then invalid_arg "Soa.partition: shards < 1";
  let shards = max 1 (min shards (max 1 n)) in
  let quot = n / shards and rem = n mod shards in
  { n; shards; quot; rem; big = rem * (quot + 1) }

let n p = p.n
let shards p = p.shards

let bounds p s =
  if s < 0 || s >= p.shards then invalid_arg "Soa.bounds: shard out of range";
  let lo = (s * p.quot) + min s p.rem in
  let size = if s < p.rem then p.quot + 1 else p.quot in
  (lo, lo + size)

(* Below [big], i / (quot + 1); from it on, rem + (i - big) / quot. The
   boundary can fall mid-population (agent 50,016 of 10⁵ at 64 shards),
   where a branch on [i < big] mispredicts about half the time for
   uniform [i]; so [m] (−1 below, 0 from [big] on: the sign of i − big)
   selects the offset, divisor and base of one division instead. *)
let shard_of p i =
  if i < 0 || i >= p.n then invalid_arg "Soa.shard_of: agent out of range";
  let m = (i - p.big) asr 62 in
  ((i - (p.big land lnot m)) / (p.quot - m)) + (p.rem land lnot m)

(* {1 Columns} *)

(* The accessors are primitives on the concrete column type (see
   soa.mli): an alias such as [let get = Bigarray.Array1.get] would be a
   closure over the generic C accessor, which boxes what it moves. *)
module F64 = struct
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
    Bigarray.Array1.fill a 0.0;
    a

  external length : t -> int = "%caml_ba_dim_1"
  external get : t -> int -> float = "%caml_ba_ref_1"
  external set : t -> int -> float -> unit = "%caml_ba_set_1"
  external uget : t -> int -> float = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

  let fill (t : t) v = Bigarray.Array1.fill t v
  let to_array t = Array.init (length t) (get t)
end

module I32 = struct
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
    Bigarray.Array1.fill a 0l;
    a

  external length : t -> int = "%caml_ba_dim_1"
  external get : t -> int -> int32 = "%caml_ba_ref_1"
  external set : t -> int -> int32 -> unit = "%caml_ba_set_1"
  external uget : t -> int -> int32 = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int32 -> unit = "%caml_ba_unsafe_set_1"

  let fill (t : t) v = Bigarray.Array1.fill t v
  let to_array t = Array.init (length t) (fun i -> Int32.to_int (get t i))
end

module I8 = struct
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout len in
    Bigarray.Array1.fill a 0;
    a

  external length : t -> int = "%caml_ba_dim_1"
  external get : t -> int -> int = "%caml_ba_ref_1"
  external set : t -> int -> int -> unit = "%caml_ba_set_1"
  external uget : t -> int -> int = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"

  let fill (t : t) v = Bigarray.Array1.fill t v
end

(* {1 Cross-shard event exchange} *)

module Exchange = struct
  (* One growable buffer per (src, dst) pair, storing events as two
     consecutive int32s in a Bigarray: half the bytes of an int array,
     never scanned by the GC, and its memory returned as soon as the GC
     finalizes it — a shards = 1 Gnutella batch holds every query of the
     batch. buffers.(src * shards + dst) is written only by the domain
     running shard [src] during a parallel phase, which is what makes
     [post] lock-free; the engines replay the buffers after the
     barrier. *)
  type buf = { mutable data : I32.t; mutable len : int }

  type t = { shards : int; buffers : buf array }

  let create ~shards =
    if shards < 1 then invalid_arg "Soa.Exchange.create: shards < 1";
    let empty = I32.create 0 in
    { shards; buffers = Array.init (shards * shards) (fun _ -> { data = empty; len = 0 }) }

  let fits x = Int32.to_int (Int32.of_int x) = x

  let post t ~src ~dst a b =
    if not (fits a && fits b) then invalid_arg "Soa.Exchange.post: event outside 32 bits";
    let buf = t.buffers.((src * t.shards) + dst) in
    let need = buf.len + 2 in
    let cap = I32.length buf.data in
    if need > cap then begin
      (* Start small: shards² buffers share a batch, so most hold a few
         events (~2 per buffer per scrip step at n = 10⁴, 64 shards). *)
      let data =
        Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max need (max 8 (2 * cap)))
      in
      for k = 0 to buf.len - 1 do
        I32.uset data k (I32.uget buf.data k)
      done;
      buf.data <- data
    end;
    I32.uset buf.data buf.len (Int32.of_int a);
    I32.uset buf.data (buf.len + 1) (Int32.of_int b);
    buf.len <- need

  let pending t =
    Array.fold_left (fun acc buf -> acc + (buf.len / 2)) 0 t.buffers

  let clear t = Array.iter (fun buf -> buf.len <- 0) t.buffers
end
