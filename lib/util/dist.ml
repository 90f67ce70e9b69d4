type 'a t = ('a * float) list

(* Merge duplicate values and drop zero-mass points. Values are equal
   when [compare] says so (List.assoc's test, under which nan equals nan
   and 0.0 equals -0.0). A merged value takes the place, and the
   representation, of its last positive-weight occurrence, and its
   weight is the left-to-right sum. A negative weight raises.

   Short lists — every per-query distribution — merge by a scan of the
   pairs kept so far, quadratic in the distinct values but cheap in
   allocation. The scan counts what it has read; a list longer than
   [scan_limit] is merged again from the start by [merge_long], in time
   linear in the list. *)
let scan_limit = 32

let add acc (x, p) =
  if p < 0.0 then invalid_arg "Dist: negative weight"
  else if p = 0.0 then acc
  else
    match List.assoc_opt x acc with
    | None -> (x, p) :: acc
    | Some q -> (x, p +. q) :: List.remove_assoc x acc

(* Each distinct value gets a group number from a hash table
   (Hashtbl.hash agrees with [compare] on nan and -0.0, and the table
   compares with [compare]); [group_at.(i)] is the group whose last
   occurrence so far is pair [i], so reading it in index order gives the
   merged list in order. *)
let merge_long pairs =
  let n = List.length pairs in
  let index = Hashtbl.create 64 in
  let keys = Array.make n (fst (List.hd pairs)) and sums = Array.make n 0.0 in
  let last = Array.make n 0 and group_at = Array.make n (-1) in
  let groups = ref 0 in
  List.iteri
    (fun i (x, p) ->
      if p < 0.0 then invalid_arg "Dist: negative weight"
      else if p <> 0.0 then begin
        let g =
          match Hashtbl.find index x with
          | g ->
            group_at.(last.(g)) <- -1;
            sums.(g) <- p +. sums.(g);
            g
          | exception Not_found ->
            let g = !groups in
            incr groups;
            Hashtbl.add index x g;
            sums.(g) <- p;
            g
        in
        keys.(g) <- x;
        last.(g) <- i;
        group_at.(i) <- g
      end)
    pairs;
  let merged = ref [] in
  for i = n - 1 downto 0 do
    let g = group_at.(i) in
    if g >= 0 then merged := (keys.(g), sums.(g)) :: !merged
  done;
  !merged

let rec scan pairs acc read = function
  | [] -> List.rev acc
  | _ :: _ when read = scan_limit -> merge_long pairs
  | pair :: rest -> scan pairs (add acc pair) (read + 1) rest

let merge pairs = scan pairs [] 0 pairs

let of_list pairs =
  let merged = merge pairs in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 merged in
  if merged = [] || total <= 0.0 then invalid_arg "Dist.of_list: empty support";
  List.map (fun (x, p) -> (x, p /. total)) merged

let return x = [ (x, 1.0) ]

let uniform xs =
  match xs with
  | [] -> invalid_arg "Dist.uniform: empty list"
  | _ -> of_list (List.map (fun x -> (x, 1.0)) xs)

let bernoulli p =
  if p < 0.0 || p > 1.0 then invalid_arg "Dist.bernoulli: p out of range";
  if p = 0.0 then return false
  else if p = 1.0 then return true
  else [ (true, p); (false, 1.0 -. p) ]

let support d = List.map fst d

let mass d x = match List.assoc_opt x d with None -> 0.0 | Some p -> p

let to_list d = d

let map f d = of_list (List.map (fun (x, p) -> (f x, p)) d)

let bind d f =
  of_list
    (List.concat_map (fun (x, p) -> List.map (fun (y, q) -> (y, p *. q)) (f x)) d)

let product da db =
  List.concat_map (fun (a, p) -> List.map (fun (b, q) -> ((a, b), p *. q)) db) da

let product_list ds =
  let rec go = function
    | [] -> return []
    | d :: rest ->
      let tail = go rest in
      bind d (fun x -> map (fun xs -> x :: xs) tail)
  in
  go ds

let expect f d = List.fold_left (fun acc (x, p) -> acc +. (p *. f x)) 0.0 d

let sample rng d =
  let u = Prng.float rng in
  let rec go acc = function
    | [] -> fst (List.hd (List.rev d))
    | (x, p) :: rest -> if u < acc +. p then x else go (acc +. p) rest
  in
  go 0.0 d

let tv_distance da db =
  let keys = List.sort_uniq compare (support da @ support db) in
  0.5 *. List.fold_left (fun acc k -> acc +. Float.abs (mass da k -. mass db k)) 0.0 keys

let filter pred d =
  let kept = List.filter (fun (x, _) -> pred x) d in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 kept in
  if total <= 0.0 then None else Some (List.map (fun (x, p) -> (x, p /. total)) kept)

let is_uniform ?(eps = 1e-9) d =
  match d with
  | [] -> true
  | (_, p0) :: rest -> List.for_all (fun (_, p) -> Float.abs (p -. p0) <= eps) rest
