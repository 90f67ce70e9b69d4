type t = Wall | Thread_cpu | Process_cpu

external wall_ns : unit -> int = "perfbench_wall_ns" [@@noalloc]
external thread_cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]
external process_cpu_ns : unit -> int = "perfbench_process_cpu_ns" [@@noalloc]

let now = function
  | Wall -> float_of_int (wall_ns ()) *. 1e-9
  | Thread_cpu -> float_of_int (thread_cpu_ns ()) *. 1e-9
  | Process_cpu -> float_of_int (process_cpu_ns ()) *. 1e-9

let timed c f =
  let t0 = now c in
  let v = f () in
  (v, now c -. t0)

(* The kernel's state is allocated once: a reading allocates nothing, so
   GC work a workload leaves pending never lands inside one. *)
let n = 8
let m = Array.make_matrix n (n + 1) 0.0
let keys = Array.make 1024 0
let table = Array.make 2048 (-1)

(* Gaussian elimination with partial pivoting on [systems] 8x8 systems,
   filled afresh each time; returns the sum of the first unknowns' ratios,
   truncated. *)
let eliminate systems =
  let acc = ref 0.0 in
  for r = 1 to systems do
    for i = 0 to n - 1 do
      for j = 0 to n do
        m.(i).(j) <- float_of_int ((((i * 7) + (j * 13) + r) mod 17) - 8) +. if i = j then 20.0 else 0.0
      done
    done;
    for c = 0 to n - 1 do
      let p = ref c in
      for i = c + 1 to n - 1 do
        if Float.abs m.(i).(c) > Float.abs m.(!p).(c) then p := i
      done;
      let t = m.(c) in
      m.(c) <- m.(!p);
      m.(!p) <- t;
      for i = 0 to n - 1 do
        if i <> c then begin
          let f = m.(i).(c) /. m.(c).(c) in
          for j = c to n do
            m.(i).(j) <- m.(i).(j) -. (f *. m.(c).(j))
          done
        end
      done
    done;
    acc := !acc +. (m.(0).(n) /. m.(0).(0))
  done;
  int_of_float !acc

(* Shell sort of [keys], filled afresh, then every key inserted into an
   open-addressing [table] and looked up again. *)
let sort_and_hash () =
  let len = Array.length keys and size = Array.length table in
  for i = 0 to len - 1 do
    keys.(i) <- i * 7919 mod 1021
  done;
  let gap = ref (len / 2) in
  while !gap > 0 do
    for i = !gap to len - 1 do
      let k = keys.(i) and j = ref i in
      while !j >= !gap && keys.(!j - !gap) > k do
        keys.(!j) <- keys.(!j - !gap);
        j := !j - !gap
      done;
      keys.(!j) <- k
    done;
    gap := !gap / 2
  done;
  Array.fill table 0 size (-1);
  for i = 0 to len - 1 do
    let h = ref (keys.(i) * 31 land (size - 1)) in
    while table.(!h) <> -1 && table.(!h) <> keys.(i) do
      h := (!h + 1) land (size - 1)
    done;
    table.(!h) <- keys.(i)
  done;
  let found = ref 0 in
  for i = 0 to len - 1 do
    let h = ref (keys.(i) * 31 land (size - 1)) in
    while table.(!h) <> keys.(i) do
      h := (!h + 1) land (size - 1)
    done;
    found := !found + !h
  done;
  !found

let kernel () = eliminate 100 + sort_and_hash () + sort_and_hash () + sort_and_hash ()

(* The first, untimed run brings the kernel's code and arrays back into the
   caches the workload just used, so the timed one does not depend on what
   the workload left there. *)
let reading c =
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = now c in
  ignore (Sys.opaque_identity (kernel ()));
  now c -. t0

let reference = 0.19e-3

let speed readings = reference /. Measure.median readings

let sample_every = 0.02

type sampler = { mutable sum : float; mutable n : int; mutable spent : float }

let sampler = { sum = 0.0; n = 0; spent = 0.0 }

let take_sample _ =
  let s, dt = timed Thread_cpu (fun () -> speed [ reading Thread_cpu ]) in
  sampler.sum <- sampler.sum +. s;
  sampler.n <- sampler.n + 1;
  sampler.spent <- sampler.spent +. dt

let sampled f =
  sampler.sum <- 0.0;
  sampler.n <- 0;
  sampler.spent <- 0.0;
  let set v = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; it_value = v }) in
  let prev = Sys.signal Sys.sigprof (Sys.Signal_handle take_sample) in
  set sample_every;
  let v, dt =
    Fun.protect
      ~finally:(fun () ->
        set 0.0;
        Sys.set_signal Sys.sigprof prev)
      (fun () -> timed Thread_cpu f)
  in
  (v, dt -. sampler.spent, if sampler.n = 0 then None else Some (sampler.sum /. float_of_int sampler.n))
