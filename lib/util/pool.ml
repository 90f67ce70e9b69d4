module Obs = Bn_obs.Obs

(* Pool calls happen under Robust's early-exit profile sweeps, and the
   number of chunks depends on the domain budget, so both counters are
   schedule-dependent. *)
let c_calls = Obs.counter ~kind:Obs.Volatile "pool.calls"
let c_chunks = Obs.counter ~kind:Obs.Volatile "pool.chunks"

(* How many items a worker completed outside its own range: pure scheduling
   telemetry, entirely timing-dependent. *)
let c_steals = Obs.counter ~kind:Obs.Volatile "pool.steals"

(* Worker domains started: each once, for the life of the process. *)
let c_workers_started = Obs.counter ~kind:Obs.Volatile "pool.workers_started"
let sk_chunk_ns = Obs.sketch ~kind:Obs.Volatile "pool.chunk_ns"

type t = { budget : int }

let default_jobs () = Domain.recommended_domain_count ()

let create ?domains () =
  let d = match domains with Some d -> d | None -> default_jobs () in
  { budget = max 1 d }

let serial = { budget = 1 }

let domains t = t.budget

(* Contiguous chunk [lo, hi) handled by worker [j] of [d] over [n] items.
   Chunk boundaries depend only on (n, d), never on timing. *)
let chunk ~n ~d j = (j * n / d, (j + 1) * n / d)

(* {1 The worker set}

   One set of worker domains serves every pool. A worker is spawned at
   the first call that finds too few idle, never more than
   [max_workers], and then lives as long as the process: between calls
   it waits on [wake]. A call posts a job; the caller and whichever
   workers are idle claim its chunks in index order, so a call never
   waits for a busy worker to start one, and the caller runs every
   chunk nobody else took. Everything below [mu] is guarded by it. *)

type job = {
  body : int -> unit;
  d : int;
  mutable next : int;  (* lowest unclaimed chunk *)
  mutable unfinished : int;
  errors : exn option array;  (* per chunk *)
}

(* Every parked domain takes part in each stop-the-world minor
   collection, which makes serial allocation slower, so the set stays
   below the core count however large a budget asks. *)
let max_workers = Domain.recommended_domain_count () - 1

let mu = Mutex.create ()
let wake = Condition.create ()
let finished = Condition.create ()
let registered = Condition.create ()
let open_jobs : job list ref = ref []
let started = ref 0
let ready = ref 0
let idle = ref 0

let workers () = Mutex.protect mu (fun () -> !started)
let idle_workers () = Mutex.protect mu (fun () -> !idle)

let run_chunk job j = try job.body j with e -> job.errors.(j) <- Some e

(* Claim chunk [job.next]; [mu] held. *)
let claim job =
  let j = job.next in
  job.next <- j + 1;
  if job.next = job.d then open_jobs := List.filter (fun o -> o != job) !open_jobs;
  j

(* Mark a chunk done; [mu] held. *)
let finish job =
  job.unfinished <- job.unfinished - 1;
  if job.unfinished = 0 then Condition.broadcast finished

(* A worker never returns: it runs claimed chunks and parks in between.
   It counts itself idle in the same critical section that finished its
   last chunk, so once a call has returned every worker that ran one of
   its chunks is idle again (or already on another call). *)
let rec work () =
  match !open_jobs with
  | job :: _ ->
    let j = claim job in
    Mutex.unlock mu;
    run_chunk job j;
    Mutex.lock mu;
    finish job;
    work ()
  | [] ->
    incr idle;
    Condition.wait wake mu;
    decr idle;
    work ()

let worker () =
  Obs.incr c_workers_started;
  Mutex.lock mu;
  incr ready;
  Condition.broadcast registered;
  work ()

(* Spawn [k] workers (slots already reserved in [started]) and wait until
   each has registered, so the Obs shard it records into exists before
   the caller goes on. A slot whose spawn fails is given back. *)
let spawn_workers k =
  let spawned = ref 0 in
  (try
     while !spawned < k do
       ignore (Domain.spawn worker);
       incr spawned
     done
   with Failure _ -> ());
  Mutex.protect mu (fun () ->
      started := !started - (k - !spawned);
      while !ready < !started do
        Condition.wait registered mu
      done)

(* Run [body j] for every chunk [j] in [0, d). Exceptions re-raise once
   all chunks are done: the lowest-numbered failing chunk in [1, d) first,
   then chunk 0's. *)
let run_workers ~d body =
  Obs.incr c_calls;
  Obs.add c_chunks d;
  (* One span per chunk, recorded on the domain that runs it; its wall
     time is the chunk's busy time, also sketched (when timing is on) so
     the chunk-size imbalance shows up as p50-vs-p99 spread. *)
  let body j =
    Obs.span "pool.chunk"
      ~args:(fun () -> [ ("worker", Obs.I j); ("domains", Obs.I d) ])
      (fun () -> Obs.timed sk_chunk_ns (fun () -> body j))
  in
  if d <= 1 then body 0
  else begin
    let job = { body; d; next = 0; unfinished = d; errors = Array.make d None } in
    Mutex.lock mu;
    open_jobs := !open_jobs @ [ job ];
    let spawn = max 0 (min (d - 1 - !idle) (max_workers - !started)) in
    started := !started + spawn;
    for _ = 1 to min (d - 1) !idle do
      Condition.signal wake
    done;
    Mutex.unlock mu;
    if spawn > 0 then spawn_workers spawn;
    Mutex.lock mu;
    while job.next < d do
      let j = claim job in
      Mutex.unlock mu;
      run_chunk job j;
      Mutex.lock mu;
      finish job
    done;
    while job.unfinished > 0 do
      Condition.wait finished mu
    done;
    Mutex.unlock mu;
    for j = 1 to d - 1 do
      Option.iter raise job.errors.(j)
    done;
    Option.iter raise job.errors.(0)
  end

let effective_domains t n = min t.budget (max 1 n)

let iter_grid t f grid =
  let n = Array.length grid in
  if n > 0 then begin
    let d = effective_domains t n in
    run_workers ~d (fun j ->
        let lo, hi = chunk ~n ~d j in
        for i = lo to hi - 1 do
          f grid.(i)
        done)
  end

let map_array t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let d = effective_domains t n in
    run_workers ~d (fun j ->
        let lo, hi = chunk ~n ~d j in
        for i = lo to hi - 1 do
          out.(i) <- Some (f xs.(i))
        done);
    Array.map (function Some y -> y | None -> assert false) out
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

(* Work-stealing variant of [map_array]: indices are still partitioned into
   the same contiguous ranges, but ownership of an {e index} is decided by a
   per-index CAS claim rather than by the partition, so a worker that
   drains its range keeps going on other ranges instead of idling. Each
   worker walks its own range front-to-back, then victims' ranges
   back-to-front (starting from the next range up), so owner and thief
   approach from opposite ends and contend only on a range's last pending
   items. Every result still lands in the slot of the index it came from —
   which indices were stolen affects timing and the [pool.steals] counter
   only, never the returned array. *)
let map_array_steal t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let d = effective_domains t n in
    if d <= 1 then begin
      let out = ref [||] in
      run_workers ~d:1 (fun _ -> out := Array.map f xs);
      !out
    end
    else begin
      let out = Array.make n None in
      let claimed = Array.init n (fun _ -> Atomic.make false) in
      (* Claim-then-run: the CAS hands each index to exactly one worker. *)
      let attempt i =
        if Atomic.compare_and_set claimed.(i) false true then begin
          out.(i) <- Some (f xs.(i));
          true
        end
        else false
      in
      run_workers ~d (fun j ->
          let lo, hi = chunk ~n ~d j in
          for i = lo to hi - 1 do
            ignore (attempt i)
          done;
          for k = 1 to d - 1 do
            let v = (j + k) mod d in
            let vlo, vhi = chunk ~n ~d v in
            for i = vhi - 1 downto vlo do
              if attempt i then Obs.incr c_steals
            done
          done);
      Array.map (function Some y -> y | None -> assert false) out
    end
  end

let find_first t f xs =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let d = effective_domains t n in
    (* Lowest index with a hit so far; workers stop once their whole
       remaining range lies above it. Purely an early-exit: the final
       answer is the minimum over per-worker first hits. *)
    let watermark = Atomic.make n in
    let rec lower i =
      let cur = Atomic.get watermark in
      if i < cur && not (Atomic.compare_and_set watermark cur i) then lower i
    in
    let hits = Array.make d None in
    run_workers ~d (fun j ->
        let lo, hi = chunk ~n ~d j in
        let i = ref lo in
        let stop = ref false in
        while (not !stop) && !i < hi && !i < Atomic.get watermark do
          (match f xs.(!i) with
          | Some _ as y ->
            hits.(j) <- Some (!i, y);
            lower !i;
            stop := true
          | None -> ());
          incr i
        done);
    let best = ref None in
    Array.iter
      (function
        | Some (i, y) -> (
          match !best with Some (i0, _) when i0 <= i -> () | _ -> best := Some (i, y))
        | None -> ())
      hits;
    match !best with Some (_, y) -> y | None -> None
  end
