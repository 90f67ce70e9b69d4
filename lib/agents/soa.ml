(* Struct-of-arrays agent store: flat Bigarray columns per field, a
   balanced contiguous shard partition, and per-(src,dst) cross-shard
   event buffers flushed in lexicographic order. See soa.mli for the
   determinism contract. *)

(* {1 Shard partition} *)

type part = { n : int; shards : int; quot : int; rem : int }
(* Shard s covers [lo, hi) with the first [rem] shards one agent larger:
   sizes are quot+1 for s < rem and quot otherwise. *)

let partition ~n ~shards =
  if n < 0 then invalid_arg "Soa.partition: n < 0";
  if shards < 1 then invalid_arg "Soa.partition: shards < 1";
  let shards = max 1 (min shards (max 1 n)) in
  { n; shards; quot = n / shards; rem = n mod shards }

let n p = p.n
let shards p = p.shards

let bounds p s =
  if s < 0 || s >= p.shards then invalid_arg "Soa.bounds: shard out of range";
  let lo = (s * p.quot) + min s p.rem in
  let size = if s < p.rem then p.quot + 1 else p.quot in
  (lo, lo + size)

let shard_of p i =
  if i < 0 || i >= p.n then invalid_arg "Soa.shard_of: agent out of range";
  let big = p.rem * (p.quot + 1) in
  if i < big then i / (p.quot + 1) else p.rem + ((i - big) / p.quot)

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

(* An int32 crosses into an OCaml int through a conversion, so these
   stay functions; the [t] annotations fix the element kind, which lets
   the compiler inline the unboxed load/store inside each of them. *)
module I32 = struct
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
    Bigarray.Array1.fill a 0l;
    a

  external length : t -> int = "%caml_ba_dim_1"
  let get (t : t) i = Int32.to_int (Bigarray.Array1.get t i)
  let set (t : t) i v = Bigarray.Array1.set t i (Int32.of_int v)
  let uget (t : t) i = Int32.to_int (Bigarray.Array1.unsafe_get t i)
  let uset (t : t) i v = Bigarray.Array1.unsafe_set t i (Int32.of_int v)
  let fill (t : t) v = Bigarray.Array1.fill t (Int32.of_int v)
  let to_array t = Array.init (length t) (get t)
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
     [post] lock-free; [flush] runs after the barrier. *)
  type events = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  type buf = { mutable data : events; mutable len : int }

  type t = { shards : int; buffers : buf array }

  let events len : events = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

  let create ~shards =
    if shards < 1 then invalid_arg "Soa.Exchange.create: shards < 1";
    let empty = events 0 in
    { shards; buffers = Array.init (shards * shards) (fun _ -> { data = empty; len = 0 }) }

  let fits x = Int32.to_int (Int32.of_int x) = x

  let post t ~src ~dst a b =
    if not (fits a && fits b) then invalid_arg "Soa.Exchange.post: event outside 32 bits";
    let buf = t.buffers.((src * t.shards) + dst) in
    let need = buf.len + 2 in
    let cap = Bigarray.Array1.dim buf.data in
    if need > cap then begin
      (* Start small: shards² buffers share a batch, so most hold a few
         events (~2 per buffer per scrip step at n = 10⁴, 64 shards). *)
      let data = events (max need (max 8 (2 * cap))) in
      for k = 0 to buf.len - 1 do
        Bigarray.Array1.unsafe_set data k (Bigarray.Array1.unsafe_get buf.data k)
      done;
      buf.data <- data
    end;
    Bigarray.Array1.unsafe_set buf.data buf.len (Int32.of_int a);
    Bigarray.Array1.unsafe_set buf.data (buf.len + 1) (Int32.of_int b);
    buf.len <- need

  let pending t =
    Array.fold_left (fun acc buf -> acc + (buf.len / 2)) 0 t.buffers

  let flush t f =
    let replayed = ref 0 in
    for src = 0 to t.shards - 1 do
      for dst = 0 to t.shards - 1 do
        let buf = t.buffers.((src * t.shards) + dst) in
        let len = buf.len in
        let i = ref 0 in
        let data = buf.data in
        while !i < len do
          f ~src ~dst
            (Int32.to_int (Bigarray.Array1.unsafe_get data !i))
            (Int32.to_int (Bigarray.Array1.unsafe_get data (!i + 1)));
          i := !i + 2
        done;
        replayed := !replayed + (len / 2);
        buf.len <- 0
      done
    done;
    !replayed
end
