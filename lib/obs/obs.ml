(* Deterministic tracing & metrics layer (no dependencies beyond the
   compiler distribution). Sits below Bn_util so every layer — Pool,
   the payoff kernel, the network simulators, the explorer, the
   experiment registry — can instrument itself.

   The determinism contract, asserted by test/test_obs.ml and CI:

   - [Det] counters are pure functions of the workload: their values are
     identical for any [-j] and across reruns with the same seed. They
     may only be bumped on code paths whose execution count is
     schedule-independent (Pool.map_array visits every item; shrinking
     is sequential per violation; ...).
   - [Volatile] counters may depend on scheduling (anything under
     Pool.find_first's early exit, per-chunk work counts). They are
     exported in a separate section and never asserted.
   - Timing (spans) is nondeterministic by nature and export-only:
     nothing in the library reads a timestamp back into computation.

   Recording costs when idle: a counter bump is a plain increment of a
   domain-local cell (no atomics, no locks — counters are sharded per
   domain and summed at read time); a span is a single Atomic.get when
   tracing is off. Span events are collected per-domain through the same
   DLS-sink pattern Bn_util.Out uses, so pool workers never contend on a
   lock on the hot path. Reads are exact once the writes are ordered
   before them (Pool waits for every chunk of a call before returning),
   which is the only time the library reads counters back. *)

[@@@lint.allow "D002"
  "span/instant timestamps are Volatile export-only data: nothing reads a clock value back \
   into computation, and the Det counter sections never contain times"]

let now_us () = Unix.gettimeofday () *. 1e6
let cpu_us () = Sys.time () *. 1e6

(* {1 Global switches} *)

let tracing = Atomic.make false
let progress = Atomic.make false

(* [timing] gates the wall-clock (Volatile) sketches recorded by {!timed}:
   off by default so uninstrumented runs never read a clock on a hot path.
   [gc_probes] gates the GC deltas captured at span boundaries;
   it only has an effect while tracing is on (the probes piggyback on
   spans), so the disabled cost is one branch inside the tracing-on path
   and zero when tracing is off. *)
let timing = Atomic.make false
let gc_probes = Atomic.make false

let set_tracing b = Atomic.set tracing b
let tracing_enabled () = Atomic.get tracing
let set_progress b = Atomic.set progress b
let progress_enabled () = Atomic.get progress
let set_timing b = Atomic.set timing b
let timing_enabled () = Atomic.get timing
let set_gc_probes b = Atomic.set gc_probes b
let gc_probes_enabled () = Atomic.get gc_probes

(* {1 Counter / histogram registry} *)

type kind = Det | Volatile

type counter = { cname : string; ckind : kind; cid : int }
type hist = { hname : string; hkind : kind; buckets : int Atomic.t array }
type sketch = { skname : string; skkind : kind; skid : int }

let registry_mu = Mutex.create ()
let counters_reg : counter list ref = ref []
let next_cid = ref 0
let hists_reg : hist list ref = ref []
let sketches_reg : sketch list ref = ref []
let next_skid = ref 0

let with_registry f = Mutex.protect registry_mu f

(* Counter storage is sharded: each domain owns one growable int array of
   cells indexed by counter id, registered globally on the domain's first
   bump. A bump is a plain read-modify-write of the domain's own cell —
   no atomic, no lock, no false sharing with other domains. [value] sums
   the shards. Pool workers live as long as the process, so the registry
   holds one shard per domain that ever recorded. Every library read
   happens after the call that wrote returned, and a call returns only
   after taking the pool's lock that each chunk releases on finishing (a
   full memory barrier), so sums are exact. A read that races a live
   writer may miss its latest bumps — harmless for the mid-run
   informational reads that are the only case. *)
(* [sk_rows] holds the domain's sketch buckets, one row per sketch id,
   allocated on the domain's first observation of that sketch. *)
type shard = { mutable cells : int array; mutable sk_rows : int array array }

let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { cells = [||]; sk_rows = [||] } in
      Mutex.protect registry_mu (fun () -> shards := s :: !shards);
      s)

(* Registration is idempotent by name so a counter can be declared at
   module-init time in several compilation units without coordination;
   the first declaration fixes the kind. *)
let counter ?(kind = Det) name =
  with_registry (fun () ->
      match List.find_opt (fun c -> c.cname = name) !counters_reg with
      | Some c -> c
      | None ->
        let c = { cname = name; ckind = kind; cid = !next_cid } in
        Stdlib.incr next_cid;
        counters_reg := c :: !counters_reg;
        c)

let[@inline never] grow_and_add s cid n =
  let a = s.cells in
  let b = Array.make (cid + 9) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b.(cid) <- n;
  s.cells <- b

let add c n =
  if n <> 0 then begin
    let s = Domain.DLS.get shard_key in
    let a = s.cells in
    if c.cid < Array.length a then a.(c.cid) <- a.(c.cid) + n
    else grow_and_add s c.cid n
  end

let incr c = add c 1

(* Batched double update for hot paths that bump two counters at once
   (one domain-local lookup instead of two). *)
let add2 c1 n1 c2 n2 =
  let s = Domain.DLS.get shard_key in
  let a = s.cells in
  let hi = if c1.cid > c2.cid then c1.cid else c2.cid in
  if hi < Array.length a then begin
    a.(c1.cid) <- a.(c1.cid) + n1;
    a.(c2.cid) <- a.(c2.cid) + n2
  end
  else begin
    if n1 <> 0 then grow_and_add s c1.cid n1;
    add c2 n2
  end

let value c =
  let ss = with_registry (fun () -> !shards) in
  List.fold_left
    (fun acc s ->
      let a = s.cells in
      acc + if c.cid < Array.length a then a.(c.cid) else 0)
    0 ss

let shard_count () = with_registry (fun () -> List.length !shards)

(* Power-of-two buckets: bucket [i] counts observations [v] with
   [2^(i-1) <= v < 2^i] (bucket 0 holds v <= 0 and v = 1 shares bucket 1). *)
let hist_buckets = 63

let hist ?(kind = Volatile) name =
  with_registry (fun () ->
      match List.find_opt (fun h -> h.hname = name) !hists_reg with
      | Some h -> h
      | None ->
        let h =
          { hname = name; hkind = kind; buckets = Array.init hist_buckets (fun _ -> Atomic.make 0) }
        in
        hists_reg := h :: !hists_reg;
        h)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    min !b (hist_buckets - 1)
  end

let observe h v = ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1)

(* {1 Quantile sketches}

   Log-linear (HDR-style) buckets over nonnegative ints, pure integer
   arithmetic throughout so bucketing is bit-identical on every platform:
   values below [2 * sk_sub] get an exact bucket each; above that, a
   bucket is (octave, top [sk_sub_bits] mantissa bits), i.e. relative
   width 1/[sk_sub]. A quantile query returns the midpoint of the bucket
   holding the nearest-rank element, so the answer is within relative
   error 1/(2*[sk_sub]) of the exact sorted quantile (exact below 64).

   Storage is domain-sharded exactly like counters — an observation is a
   plain increment of the domain's own bucket row, no atomics or locks —
   and a snapshot merges the shards in the registry's fixed order.
   Bucket-count addition is commutative, so a [Det] sketch (observations
   are a pure function of the workload) snapshots byte-identically for
   any [-j] and across reruns. Wall-clock sketches are [Volatile]. *)

let sk_sub_bits = 5
let sk_sub = 1 lsl sk_sub_bits
let sk_buckets = ((62 - sk_sub_bits) * sk_sub) + (2 * sk_sub)

let sk_bucket_of v =
  if v <= 0 then 0
  else if v < 2 * sk_sub then v
  else begin
    let msb = ref 0 and w = ref v in
    while !w > 1 do
      Stdlib.incr msb;
      w := !w lsr 1
    done;
    (((!msb - sk_sub_bits) * sk_sub) + sk_sub) + ((v lsr (!msb - sk_sub_bits)) land (sk_sub - 1))
  end

(* Lower bound of a bucket's value range; inverse of [sk_bucket_of]. *)
let sk_bucket_lo idx =
  if idx < 2 * sk_sub then idx
  else
    let msb = (idx / sk_sub) + sk_sub_bits - 1 in
    (sk_sub + (idx land (sk_sub - 1))) lsl (msb - sk_sub_bits)

(* Midpoint representative: the deterministic answer for any value that
   hashed to this bucket. *)
let sk_bucket_rep idx =
  if idx < 2 * sk_sub then idx
  else
    let msb = (idx / sk_sub) + sk_sub_bits - 1 in
    sk_bucket_lo idx + (1 lsl (msb - sk_sub_bits - 1))

let sketch ?(kind = Volatile) name =
  with_registry (fun () ->
      match List.find_opt (fun s -> s.skname = name) !sketches_reg with
      | Some s -> s
      | None ->
        let s = { skname = name; skkind = kind; skid = !next_skid } in
        Stdlib.incr next_skid;
        sketches_reg := s :: !sketches_reg;
        s)

let[@inline never] sk_grow_row s id =
  let rows = s.sk_rows in
  let rows =
    if id < Array.length rows then rows
    else begin
      let b = Array.make (id + 4) [||] in
      Array.blit rows 0 b 0 (Array.length rows);
      s.sk_rows <- b;
      b
    end
  in
  let row = Array.make sk_buckets 0 in
  rows.(id) <- row;
  row

let observe_sk sk v =
  let s = Domain.DLS.get shard_key in
  let rows = s.sk_rows in
  let row =
    if sk.skid < Array.length rows && Array.length rows.(sk.skid) > 0 then rows.(sk.skid)
    else sk_grow_row s sk.skid
  in
  let b = sk_bucket_of v in
  row.(b) <- row.(b) + 1

(* Time [f] into a (Volatile) sketch in nanoseconds. One atomic load when
   timing is off — instrumented hot paths keep their speed by default. *)
let timed sk f =
  if not (Atomic.get timing) then f ()
  else begin
    let t0 = now_us () in
    let fin () = observe_sk sk (int_of_float ((now_us () -. t0) *. 1e3)) in
    match f () with
    | r ->
      fin ();
      r
    | exception e ->
      fin ();
      raise e
  end

module Sketch = struct
  type snap = { total : int; cells : (int * int) list }

  let empty = { total = 0; cells = [] }

  (* Sum the per-domain rows in the registry's fixed order (commutative
     addition: any order yields the same cells). *)
  let snapshot sk =
    let ss = with_registry (fun () -> List.rev !shards) in
    let acc = Array.make sk_buckets 0 in
    List.iter
      (fun s ->
        if sk.skid < Array.length s.sk_rows then begin
          let row = s.sk_rows.(sk.skid) in
          Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) row
        end)
      ss;
    let total = ref 0 and cells = ref [] in
    for i = sk_buckets - 1 downto 0 do
      if acc.(i) > 0 then begin
        total := !total + acc.(i);
        cells := (i, acc.(i)) :: !cells
      end
    done;
    { total = !total; cells = !cells }

  let of_values vs =
    let acc = Array.make sk_buckets 0 in
    List.iter (fun v -> acc.(sk_bucket_of v) <- acc.(sk_bucket_of v) + 1) vs;
    let cells = ref [] in
    for i = sk_buckets - 1 downto 0 do
      if acc.(i) > 0 then cells := (i, acc.(i)) :: !cells
    done;
    { total = List.length vs; cells = !cells }

  (* Merge is a sorted-assoc-list union with added counts: associative and
     commutative (QCheck-pinned), so sketches merge across shards, runs or
     files without an ordering contract. *)
  let merge a b =
    let rec go xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> rest
      | (i, ci) :: xs', (j, cj) :: ys' ->
        if i < j then (i, ci) :: go xs' ys
        else if j < i then (j, cj) :: go xs ys'
        else (i, ci + cj) :: go xs' ys'
    in
    { total = a.total + b.total; cells = go a.cells b.cells }

  let count s = s.total

  (* Nearest-rank: the representative of the bucket holding the element of
     rank ceil(q * n) (clamped to [1, n]). *)
  let quantile s q =
    if s.total = 0 then 0
    else begin
      let rank = int_of_float (Float.ceil (q *. float_of_int s.total)) in
      let rank = if rank < 1 then 1 else if rank > s.total then s.total else rank in
      let rec walk cum = function
        | [] -> 0
        | (i, c) :: rest -> if cum + c >= rank then sk_bucket_rep i else walk (cum + c) rest
      in
      walk 0 s.cells
    end

  let quantiles s =
    [ ("p50", quantile s 0.50); ("p90", quantile s 0.90);
      ("p99", quantile s 0.99); ("p999", quantile s 0.999) ]
end

let sketches_snapshot ?kind () =
  let sks = with_registry (fun () -> !sketches_reg) in
  let sks = match kind with None -> sks | Some k -> List.filter (fun s -> s.skkind = k) sks in
  List.sort compare (List.map (fun s -> (s.skname, Sketch.snapshot s)) sks)

let counters_snapshot ?kind () =
  let cs = with_registry (fun () -> !counters_reg) in
  let cs = match kind with None -> cs | Some k -> List.filter (fun c -> c.ckind = k) cs in
  List.sort compare (List.map (fun c -> (c.cname, value c)) cs)

(* {1 Trace events} *)

type arg = I of int | S of string | F of float
type phase = Begin | End | Instant

type event = {
  ename : string;
  ph : phase;
  ts_us : float;
  tid : int;  (** integer id of the recording domain *)
  args : (string * arg) list;
}

type sink = { stid : int; mutable evs : event list (* newest first *) }

let sinks_mu = Mutex.create ()
let sinks : sink list ref = ref []

(* One sink per domain, registered globally on the domain's first event;
   after registration the hot path touches only domain-local state. *)
let sink_key : sink Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { stid = (Domain.self () :> int); evs = [] } in
      Mutex.protect sinks_mu (fun () -> sinks := s :: !sinks);
      s)

let spans_total = Atomic.make 0

let emit ename ph args =
  let s = Domain.DLS.get sink_key in
  s.evs <- { ename; ph; ts_us = now_us (); tid = s.stid; args } :: s.evs

let no_args () = []

(* {1 GC probes}

   Allocation and collection deltas captured at span boundaries,
   aggregated per span label in a per-domain table and summed at read
   time. Attribution is inclusive: a nested span's allocation also
   counts toward its ancestors. Only enabled together with tracing,
   behind the single [gc_probes] branch below.

   A boundary reads this domain's allocation counters, tens of ns:
   [Gc.minor_words], exact to the word, and the major and promoted words
   of [Gc.counters] (whose minor count, like [Gc.quick_stat]'s, moves
   only at collections). The collection counts come from
   [Gc.quick_stat], which costs ~1.6 µs (it sums statistics over every
   domain slot) — more than the work inside many spans — so each domain
   caches them and reads them again only once its minor heap has been
   collected. Allocating moves bytes from the minor heap's free space
   into [minor_words], so their sum is constant between collections, and
   a collection adds the fill it empties. The sum is taken just before
   [quick_stat] allocates its result, so that fill is never zero: the
   first collection after a refresh always changes the sum. *)

type gc_cell = {
  mutable g_alloc_w : float;  (* allocated words: minor + major - promoted *)
  mutable g_major : int;
  mutable g_minor : int;
}

type gc_sink = {
  mutable g_names : string list;
  g_tbl : (string, gc_cell) Hashtbl.t;
  mutable g_heap_sum : float;  (* minor-heap bytes allocated + free when the counts were read *)
  mutable g_major_c : int;
  mutable g_minor_c : int;
}

let gc_sinks_mu = Mutex.create ()
let gc_sinks : gc_sink list ref = ref []

let gc_sink_key : gc_sink Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        { g_names = []; g_tbl = Hashtbl.create 16; g_heap_sum = -1.0; g_major_c = 0; g_minor_c = 0 }
      in
      Mutex.protect gc_sinks_mu (fun () -> gc_sinks := s :: !gc_sinks);
      s)

let word_bytes = float_of_int (Sys.word_size / 8)

(* Words this domain has allocated so far; refreshes the sink's
   collection counts if a collection happened since they were read. *)
let gc_probe sink =
  let _, promoted, major = Gc.counters () in
  let minor = Gc.minor_words () in
  let sum = (minor *. word_bytes) +. float_of_int (Gc.get_minor_free ()) in
  if sum <> sink.g_heap_sum then begin
    sink.g_heap_sum <- sum;
    let st = Gc.quick_stat () in
    sink.g_major_c <- st.Gc.major_collections;
    sink.g_minor_c <- st.Gc.minor_collections
  end;
  minor +. major -. promoted

let gc_record sink name ~words ~major ~minor =
  let cell =
    match Hashtbl.find_opt sink.g_tbl name with
    | Some c -> c
    | None ->
      let c = { g_alloc_w = 0.0; g_major = 0; g_minor = 0 } in
      Hashtbl.add sink.g_tbl name c;
      sink.g_names <- name :: sink.g_names;
      c
  in
  cell.g_alloc_w <- cell.g_alloc_w +. words;
  cell.g_major <- cell.g_major + major;
  cell.g_minor <- cell.g_minor + minor

(* Aggregated (label, (alloc_words, major_collections, minor_collections))
   rows, sorted by label. Export-only, like every wall-clock artifact. *)
let gc_snapshot () =
  let ss = Mutex.protect gc_sinks_mu (fun () -> !gc_sinks) in
  let agg : (string, gc_cell) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sink ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt sink.g_tbl name with
          | None -> ()
          | Some c ->
            let cell =
              match Hashtbl.find_opt agg name with
              | Some cell -> cell
              | None ->
                let cell = { g_alloc_w = 0.0; g_major = 0; g_minor = 0 } in
                Hashtbl.add agg name cell;
                order := name :: !order;
                cell
            in
            cell.g_alloc_w <- cell.g_alloc_w +. c.g_alloc_w;
            cell.g_major <- cell.g_major + c.g_major;
            cell.g_minor <- cell.g_minor + c.g_minor)
        (List.rev sink.g_names))
    (List.rev ss);
  List.map
    (fun name ->
      let c = Hashtbl.find agg name in
      (name, (int_of_float c.g_alloc_w, c.g_major, c.g_minor)))
    (List.sort_uniq compare !order)

let span ?(args = no_args) name f =
  if not (Atomic.get tracing) then f ()
  else begin
    ignore (Atomic.fetch_and_add spans_total 1);
    emit name Begin (args ());
    if Atomic.get gc_probes then begin
      let sink = Domain.DLS.get gc_sink_key in
      let w0 = gc_probe sink in
      let major0 = sink.g_major_c and minor0 = sink.g_minor_c in
      Fun.protect
        ~finally:(fun () ->
          let w1 = gc_probe sink in
          gc_record sink name ~words:(w1 -. w0) ~major:(sink.g_major_c - major0)
            ~minor:(sink.g_minor_c - minor0);
          emit name End [])
        f
    end
    else Fun.protect ~finally:(fun () -> emit name End []) f
  end

let instant ?(args = no_args) name =
  if Atomic.get tracing then emit name Instant (args ())

let span_count () = Atomic.get spans_total

let events () =
  let ss = Mutex.protect sinks_mu (fun () -> !sinks) in
  List.concat_map (fun s -> List.rev s.evs) (List.rev ss)

(* {1 Reset (tests and multi-phase CLI runs)} *)

let reset () =
  with_registry (fun () ->
      List.iter
        (fun s ->
          Array.fill s.cells 0 (Array.length s.cells) 0;
          Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) s.sk_rows)
        !shards;
      List.iter (fun h -> Array.iter (fun b -> Atomic.set b 0) h.buckets) !hists_reg);
  Mutex.protect sinks_mu (fun () -> List.iter (fun s -> s.evs <- []) !sinks);
  Mutex.protect gc_sinks_mu (fun () ->
      List.iter
        (fun s ->
          s.g_names <- [];
          Hashtbl.reset s.g_tbl)
        !gc_sinks);
  Atomic.set spans_total 0

(* {1 JSON writing} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let arg_json = function
  | I n -> string_of_int n
  | S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | F x -> Printf.sprintf "%.6f" x

module Export = struct
  (* Chrome trace-event format (chrome://tracing, Perfetto): a JSON
     object with a "traceEvents" array of B/E/i events. Timestamps are
     microseconds relative to the earliest recorded event. *)
  let chrome_trace () =
    let evs = events () in
    let t0 = List.fold_left (fun acc e -> Float.min acc e.ts_us) infinity evs in
    let t0 = if Float.is_finite t0 then t0 else 0.0 in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string buf ",\n";
        let ph = match e.ph with Begin -> "B" | End -> "E" | Instant -> "i" in
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"bn\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
             (json_escape e.ename) ph e.tid (e.ts_us -. t0));
        if e.ph = Instant then Buffer.add_string buf ",\"s\":\"t\"";
        (match e.args with
        | [] -> ()
        | args ->
          Buffer.add_string buf ",\"args\":{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) (arg_json v)))
            args;
          Buffer.add_char buf '}');
        Buffer.add_char buf '}')
      evs;
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf

  let kv_section buf label kvs =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {\n" label);
    List.iteri
      (fun i (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "    \"%s\": %d%s\n" (json_escape k) v
             (if i = List.length kvs - 1 then "" else ",")))
      kvs;
    Buffer.add_string buf "  }"

  (* One sketch as a JSON object: count, the standard quantiles, and the
     raw (bucket, count) cells — enough to re-merge or re-quantile the
     sketch downstream (obsdiff asserts Det sketches cell-equal). *)
  let sketch_json (snap : Sketch.snap) =
    Printf.sprintf "{ \"count\": %d, %s, \"cells\": [%s] }" snap.Sketch.total
      (String.concat ", "
         (List.map (fun (q, v) -> Printf.sprintf "\"%s\": %d" q v) (Sketch.quantiles snap)))
      (String.concat ", " (List.map (fun (b, c) -> Printf.sprintf "[%d, %d]" b c) snap.Sketch.cells))

  let sketch_section buf label sks =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {\n" label);
    List.iteri
      (fun i (name, snap) ->
        Buffer.add_string buf
          (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name) (sketch_json snap)
             (if i = List.length sks - 1 then "" else ",")))
      sks;
    Buffer.add_string buf "  }"

  (* Flat metrics snapshot (schema beyond-nash-metrics/2; /1 lacked the
     sketch and gc sections). The "counters" and "sketches" sections
     contain only [Det] instruments, sorted by name: they are the
     byte-comparable artifact of the determinism contract (obsdiff and CI
     compare them between -j1 and -j2 runs and across reruns).
     Everything else is informational. *)
  let metrics_json () =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"schema\": \"beyond-nash-metrics/2\",\n";
    kv_section buf "counters" (counters_snapshot ~kind:Det ());
    Buffer.add_string buf ",\n";
    sketch_section buf "sketches" (sketches_snapshot ~kind:Det ());
    Buffer.add_string buf ",\n";
    kv_section buf "volatile" (counters_snapshot ~kind:Volatile ());
    Buffer.add_string buf ",\n";
    sketch_section buf "sketches_volatile" (sketches_snapshot ~kind:Volatile ());
    Buffer.add_string buf ",\n";
    let hists = with_registry (fun () -> !hists_reg) in
    Buffer.add_string buf "  \"histograms\": {\n";
    let hists = List.sort (fun a b -> compare a.hname b.hname) hists in
    List.iteri
      (fun i h ->
        let cells = ref [] in
        Array.iteri
          (fun b c ->
            let c = Atomic.get c in
            if c > 0 then
              cells := Printf.sprintf "[%d, %d]" (if b = 0 then 0 else 1 lsl (b - 1)) c :: !cells)
          h.buckets;
        Buffer.add_string buf
          (Printf.sprintf "    \"%s\": [%s]%s\n" (json_escape h.hname)
             (String.concat ", " (List.rev !cells))
             (if i = List.length hists - 1 then "" else ",")))
      hists;
    Buffer.add_string buf "  },\n";
    let gc = gc_snapshot () in
    Buffer.add_string buf "  \"gc\": {\n";
    List.iteri
      (fun i (name, (alloc_w, majors, minors)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    \"%s\": { \"obs.alloc_words\": %d, \"obs.major_collections\": %d, \
              \"obs.minor_collections\": %d }%s\n"
             (json_escape name) alloc_w majors minors
             (if i = List.length gc - 1 then "" else ",")))
      gc;
    Buffer.add_string buf "  },\n";
    Buffer.add_string buf (Printf.sprintf "  \"spans\": %d\n}\n" (Atomic.get spans_total));
    Buffer.contents buf
end

(* {1 Human summary} *)

(* Nearest-rank quantile over a sorted [(value, count)] list — shared by
   the summary renderer for both power-of-2 histograms and sketches. *)
let cells_quantile total cells q =
  if total = 0 then 0
  else begin
    let rank = max 1 (min total (int_of_float (Float.ceil (q *. float_of_int total)))) in
    let rec go seen = function
      | [] -> 0
      | (v, c) :: tl -> if seen + c >= rank then v else go (seen + c) tl
    in
    go 0 cells
  end

(* Aggregate the recorded spans by path (stack of open span names, per
   domain, capped at depth 3) and render an indented tree with call
   counts and total wall time, followed by the busiest counters. Wall
   times are informational only — see the determinism contract above. *)
let summary ?(max_rows = 48) () =
  let agg : (string list, int ref * float ref) Hashtbl.t = Hashtbl.create 64 in
  let order : string list list ref = ref [] in
  let ss = Mutex.protect sinks_mu (fun () -> !sinks) in
  List.iter
    (fun s ->
      let stack = ref [] in
      List.iter
        (fun e ->
          match e.ph with
          | Begin -> stack := (e.ename, e.ts_us) :: !stack
          | End -> (
            match !stack with
            | (name, t0) :: rest ->
              stack := rest;
              let path = List.rev (name :: List.map fst rest) in
              (* Spans nested deeper than the cap are dropped (not folded
                 into an ancestor row, which would double-count time). *)
              if List.length path <= 3 then begin
              let cnt, tot =
                match Hashtbl.find_opt agg path with
                | Some cell -> cell
                | None ->
                  let cell = (ref 0, ref 0.0) in
                  Hashtbl.add agg path cell;
                  order := path :: !order;
                  cell
              in
              Stdlib.incr cnt;
              tot := !tot +. (e.ts_us -. t0)
              end
            | [] -> ())
          | Instant -> ())
        (List.rev s.evs))
    (List.rev ss);
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "== observability summary ==\n";
  p "span tree (calls, total wall ms; depth <= 3, aggregated over domains):\n";
  let paths = List.sort compare (List.rev !order) in
  let shown = ref 0 in
  List.iter
    (fun path ->
      if !shown < max_rows then begin
        Stdlib.incr shown;
        let cnt, tot = Hashtbl.find agg path in
        let depth = List.length path - 1 in
        let name = List.nth path depth in
        p "  %s%-*s %8d %12.2f\n" (String.make (2 * depth) ' ')
          (max 1 (36 - (2 * depth)))
          name !cnt (!tot /. 1e3)
      end)
    paths;
  if paths = [] then p "  (no spans recorded; enable tracing with --trace/--obs-summary)\n";
  let counters =
    List.filter (fun (_, v) -> v > 0) (counters_snapshot ())
    |> List.sort (fun (na, va) (nb, vb) -> compare (vb, na) (va, nb))
  in
  p "top counters:\n";
  List.iteri (fun i (n, v) -> if i < 16 then p "  %-36s %12d\n" n v) counters;
  if counters = [] then p "  (all counters zero)\n";
  (* Quantiles for every non-empty histogram and sketch (nearest-rank,
     bucket representative values). *)
  let qline name total cells =
    p "  %-36s n=%-9d p50=%-9d p90=%-9d p99=%-9d p999=%d\n" name total
      (cells_quantile total cells 0.50)
      (cells_quantile total cells 0.90)
      (cells_quantile total cells 0.99)
      (cells_quantile total cells 0.999)
  in
  let hist_rows =
    List.filter_map
      (fun h ->
        let cells = ref [] and total = ref 0 in
        Array.iteri
          (fun b c ->
            let c = Atomic.get c in
            if c > 0 then begin
              total := !total + c;
              cells := ((if b = 0 then 0 else 1 lsl (b - 1)), c) :: !cells
            end)
          h.buckets;
        if !total = 0 then None else Some (h.hname, !total, List.rev !cells))
      (List.sort (fun a b -> compare a.hname b.hname) (with_registry (fun () -> !hists_reg)))
  in
  let sk_rows =
    List.filter_map
      (fun (n, s) ->
        if s.Sketch.total = 0 then None
        else
          Some (n, s.Sketch.total, List.map (fun (b, c) -> (sk_bucket_rep b, c)) s.Sketch.cells))
      (sketches_snapshot ())
  in
  if hist_rows <> [] || sk_rows <> [] then begin
    p "quantiles (histograms and sketches):\n";
    List.iter (fun (n, total, cells) -> qline n total cells) hist_rows;
    List.iter (fun (n, total, cells) -> qline n total cells) sk_rows
  end;
  Buffer.contents buf

(* {1 Span-tree profiler}

   Walk each domain's recorded event stream with an explicit stack and
   aggregate by full span path: inclusive time is [end - begin];
   exclusive (self) time subtracts the inclusive time of direct
   children. Used by [--profile] (human table) and [--folded]
   (collapsed-stack export for flamegraph.pl / speedscope). *)

module Profile = struct
  type row = { path : string list; calls : int; incl_us : float; excl_us : float }

  let rows () =
    let agg : (string list, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 64 in
    let order : string list list ref = ref [] in
    let ss = Mutex.protect sinks_mu (fun () -> !sinks) in
    List.iter
      (fun s ->
        (* Stack frames: (name, open timestamp, accumulated child inclusive
           time). Unbalanced ends are dropped, like in [summary]. *)
        let stack = ref [] in
        List.iter
          (fun e ->
            match e.ph with
            | Begin -> stack := (e.ename, e.ts_us, ref 0.0) :: !stack
            | End -> (
              match !stack with
              | (name, t0, kids) :: rest ->
                stack := rest;
                let incl = e.ts_us -. t0 in
                (match rest with (_, _, pk) :: _ -> pk := !pk +. incl | [] -> ());
                let path = List.rev (name :: List.map (fun (n, _, _) -> n) rest) in
                let cnt, i_tot, e_tot =
                  match Hashtbl.find_opt agg path with
                  | Some cell -> cell
                  | None ->
                    let cell = (ref 0, ref 0.0, ref 0.0) in
                    Hashtbl.add agg path cell;
                    order := path :: !order;
                    cell
                in
                Stdlib.incr cnt;
                i_tot := !i_tot +. incl;
                e_tot := !e_tot +. (incl -. !kids)
              | [] -> ())
            | Instant -> ())
          (List.rev s.evs))
      (List.rev ss);
    List.map
      (fun path ->
        let cnt, i_tot, e_tot = Hashtbl.find agg path in
        { path; calls = !cnt; incl_us = !i_tot; excl_us = !e_tot })
      (List.sort compare (List.rev !order))

  let table ?(max_rows = 96) () =
    let rs = rows () in
    let buf = Buffer.create 1024 in
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    p "== profile (self time, aggregated over domains) ==\n";
    p "  %-44s %8s %12s %12s\n" "span" "calls" "incl ms" "excl ms";
    let shown = ref 0 in
    List.iter
      (fun r ->
        if !shown < max_rows then begin
          Stdlib.incr shown;
          let depth = List.length r.path - 1 in
          let name = List.nth r.path depth in
          p "  %s%-*s %8d %12.2f %12.2f\n" (String.make (2 * depth) ' ')
            (max 1 (44 - (2 * depth)))
            name r.calls (r.incl_us /. 1e3) (r.excl_us /. 1e3)
        end)
      rs;
    if rs = [] then p "  (no spans recorded; profiling implies tracing)\n";
    let gc = gc_snapshot () in
    if gc <> [] then begin
      p "gc per region (inclusive; alloc words, major / minor collections):\n";
      List.iter
        (fun (name, (aw, majors, minors)) -> p "  %-44s %14d %6d %8d\n" name aw majors minors)
        gc
    end;
    Buffer.contents buf

  (* One line per path, [a;b;c <excl microseconds>] — the collapsed-stack
     format flamegraph.pl consumes directly. Zero-weight rows are
     dropped (flamegraph tools ignore them anyway). *)
  let folded () =
    let buf = Buffer.create 1024 in
    List.iter
      (fun r ->
        let us = int_of_float r.excl_us in
        if us > 0 then
          Buffer.add_string buf (Printf.sprintf "%s %d\n" (String.concat ";" r.path) us))
      (rows ());
    Buffer.contents buf
end

(* {1 Minimal JSON validator}

   Used by the test suite and CI to check exporter output without
   depending on an external JSON library. Accepts RFC 8259 JSON. *)

module Json = struct
  exception Bad

  let validate s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c = match peek () with Some c' when c' = c -> advance () | _ -> raise Bad in
    let literal l =
      String.iter (fun c -> expect c) l
    in
    let string_body () =
      expect '"';
      let fin = ref false in
      while not !fin do
        match peek () with
        | None -> raise Bad
        | Some '"' -> advance (); fin := true
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> raise Bad
            done
          | _ -> raise Bad)
        | Some c when Char.code c < 0x20 -> raise Bad
        | Some _ -> advance ()
      done
    in
    let number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      let digits () =
        let seen = ref false in
        while (match peek () with Some '0' .. '9' -> true | _ -> false) do
          seen := true;
          advance ()
        done;
        if not !seen then raise Bad
      in
      (* Integer part: a lone 0, or a nonzero digit then any run — JSON
         forbids leading zeros. *)
      (match peek () with
      | Some '0' -> advance ()
      | Some '1' .. '9' -> digits ()
      | _ -> raise Bad);
      (match peek () with
      | Some '.' ->
        advance ();
        digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            skip_ws ();
            string_body ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); fin := true
            | _ -> raise Bad
          done
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); fin := true
            | _ -> raise Bad
          done
        end
      | Some '"' -> string_body ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise Bad
    in
    match
      value ();
      skip_ws ();
      if !pos <> n then raise Bad
    with
    | () -> true
    | exception Bad -> false

  (* A value-producing parser over the same grammar, for tools (obsdiff)
     that must read the exporter output back. Object members keep file
     order. *)
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of value list
    | Obj of (string * value) list

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c = match peek () with Some c' when c' = c -> advance () | _ -> raise Bad in
    let literal l = String.iter (fun c -> expect c) l in
    let hex4 () =
      let v = ref 0 in
      for _ = 1 to 4 do
        (match peek () with
        | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
        | Some ('a' .. 'f' as c) -> v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
        | Some ('A' .. 'F' as c) -> v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
        | _ -> raise Bad);
        advance ()
      done;
      !v
    in
    let string_body () =
      expect '"';
      let buf = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        match peek () with
        | None -> raise Bad
        | Some '"' -> advance (); fin := true
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'
          | Some '\\' -> advance (); Buffer.add_char buf '\\'
          | Some '/' -> advance (); Buffer.add_char buf '/'
          | Some 'b' -> advance (); Buffer.add_char buf '\b'
          | Some 'f' -> advance (); Buffer.add_char buf '\012'
          | Some 'n' -> advance (); Buffer.add_char buf '\n'
          | Some 'r' -> advance (); Buffer.add_char buf '\r'
          | Some 't' -> advance (); Buffer.add_char buf '\t'
          | Some 'u' ->
            advance ();
            let cp = hex4 () in
            Buffer.add_utf_8_uchar buf
              (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep)
          | _ -> raise Bad)
        | Some c when Char.code c < 0x20 -> raise Bad
        | Some c -> advance (); Buffer.add_char buf c
      done;
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      (match peek () with Some '-' -> advance () | _ -> ());
      let digits () =
        let seen = ref false in
        while (match peek () with Some '0' .. '9' -> true | _ -> false) do
          seen := true;
          advance ()
        done;
        if not !seen then raise Bad
      in
      (match peek () with
      | Some '0' -> advance ()
      | Some '1' .. '9' -> digits ()
      | _ -> raise Bad);
      (match peek () with
      | Some '.' ->
        advance ();
        digits ()
      | _ -> ());
      (match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      float_of_string (String.sub s start (!pos - start))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let fin = ref false in
          while not !fin do
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); fin := true
            | _ -> raise Bad
          done;
          Obj (List.rev !members)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let fin = ref false in
          while not !fin do
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); fin := true
            | _ -> raise Bad
          done;
          Arr (List.rev !items)
        end
      | Some '"' -> Str (string_body ())
      | Some 't' -> literal "true"; Bool true
      | Some 'f' -> literal "false"; Bool false
      | Some 'n' -> literal "null"; Null
      | Some ('-' | '0' .. '9') -> Num (number ())
      | _ -> raise Bad
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then raise Bad;
      v
    with
    | v -> Some v
    | exception Bad -> None

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end
