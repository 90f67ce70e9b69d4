(* Row-reduce an augmented matrix over GF(p) in place: columns [0, ncols)
   are coefficients, any further columns are carried along. Returns the
   pivots (row, column) in row order and the rank.

   When column [c] is reached, every row from [rank] down is zero left of
   [c] (earlier pivot columns were cleared from all other rows, and a
   column without a pivot was already zero there), so the pivot row and
   the row operations start at [c]: the entries they skip would be
   unchanged. *)
let row_reduce m ncols =
  let rows = Array.length m in
  let width = Array.length m.(0) in
  let pivots = ref [] in
  let rank = ref 0 in
  let col = ref 0 in
  while !rank < rows && !col < ncols do
    let c = !col and k = !rank in
    let pivot = ref k in
    while !pivot < rows && m.(!pivot).(c) = 0 do
      incr pivot
    done;
    if !pivot < rows then begin
      let prow = m.(!pivot) in
      m.(!pivot) <- m.(k);
      m.(k) <- prow;
      let inv = Field.inv prow.(c) in
      for j = c to width - 1 do
        prow.(j) <- Field.mul inv prow.(j)
      done;
      for r = 0 to rows - 1 do
        let row = m.(r) in
        let f = row.(c) in
        if r <> k && f <> 0 then
          for j = c to width - 1 do
            row.(j) <- Field.sub row.(j) (Field.mul f prow.(j))
          done
      done;
      pivots := (k, c) :: !pivots;
      incr rank
    end;
    incr col
  done;
  (List.rev !pivots, !rank)

(* [a] with [b] (or zeros) as an extra column, reduced into the field. *)
let augment a b =
  let ncols = Array.length a.(0) in
  Array.mapi
    (fun r ar ->
      let row = Array.make (ncols + 1) (match b with Some b -> Field.of_int b.(r) | None -> 0) in
      for j = 0 to ncols - 1 do
        row.(j) <- Field.of_int ar.(j)
      done;
      row)
    a

let solve a b =
  let rows = Array.length a in
  if rows = 0 then Some [||]
  else begin
    let ncols = Array.length a.(0) in
    let m = augment a (Some b) in
    let pivots, rank = row_reduce m ncols in
    (* Rows from [rank] down are zero in every coefficient column, so the
       system is inconsistent iff one of them has a nonzero right-hand
       side. *)
    let consistent = ref true in
    for r = rank to rows - 1 do
      if m.(r).(ncols) <> 0 then consistent := false
    done;
    if not !consistent then None
    else begin
      (* Free variables are 0, so each pivot variable is its row's
         right-hand side. *)
      let x = Array.make ncols 0 in
      List.iter (fun (r, c) -> x.(c) <- m.(r).(ncols)) pivots;
      Some x
    end
  end

let rank a =
  if Array.length a = 0 then 0 else snd (row_reduce (augment a None) (Array.length a.(0)))
