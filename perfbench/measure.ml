type outcome = { items : int; seconds : float; ok : bool }

let rounds ~per_second seconds = max 1 (int_of_float (Float.round (seconds *. per_second)))

let items_per_s os =
  let items, secs =
    List.fold_left
      (fun (n, s) o -> if o.ok then (n + o.items, s +. o.seconds) else (n, s))
      (0, 0.0) os
  in
  if secs > 0.0 then float_of_int items /. secs else 0.0

let median = function
  | [] -> invalid_arg "Measure.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_rate rounds = median (List.map items_per_s rounds)

let attempted os = List.fold_left (fun n o -> n + o.items) 0 os
let failed os = List.fold_left (fun n o -> if o.ok then n else n + o.items) 0 os

let latency o = if o.ok then o.seconds else Float.infinity

let total os =
  List.fold_left
    (fun t o -> { items = t.items + o.items; seconds = t.seconds +. o.seconds; ok = t.ok && o.ok })
    { items = 0; seconds = 0.0; ok = true }
    os

let scale speed o = { o with seconds = o.seconds *. speed }

let percentile ?(min_beyond = 10) q xs =
  let n = Array.length xs in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  if n = 0 || n - rank < min_beyond then None
  else begin
    let xs = Array.copy xs in
    Array.sort Float.compare xs;
    Some xs.(rank - 1)
  end

exception Abandoned

let with_limit seconds f =
  (* The handler raises only while [armed]: an alarm that lands after [f]
     returned, but before the timer is disarmed, is then ignored instead of
     escaping from the caller. *)
  let armed = ref true in
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Abandoned)) in
  let set v =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = v })
  in
  set seconds;
  Fun.protect
    ~finally:(fun () ->
      armed := false;
      set 0.0;
      Sys.set_signal Sys.sigalrm prev)
    (fun () ->
      match f () with
      | v ->
        armed := false;
        Some v
      | exception Abandoned -> None)
