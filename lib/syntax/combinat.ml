let rec insertions x = function
  | [] -> Seq.return [ x ]
  | y :: ys ->
    Seq.cons
      (x :: y :: ys)
      (Seq.map (fun zs -> y :: zs) (insertions x ys))

let rec permutations = function
  | [] -> Seq.return []
  | x :: xs -> Seq.concat_map (insertions x) (permutations xs)

let rec subsets = function
  | [] -> Seq.return []
  | x :: xs ->
    let rest = subsets xs in
    Seq.append rest (Seq.map (fun s -> x :: s) rest)

(* [subsets_up_to k (x :: xs)] is [subsets_up_to k xs] followed by
   [x :: s] for each [s] in [subsets_up_to (k - 1) xs].  Unrolled along
   the list, that is [[]] and then, for each element from the last to the
   first, the element prepended to the smaller subsets of what follows
   it: the same order, with [k] levels of sequence nesting instead of
   one per element. *)
let rec subsets_up_to k l =
  if k <= 0 then Seq.return []
  else
    let rec tails acc = function
      | [] -> acc
      | x :: xs -> tails ((x, xs) :: acc) xs
    in
    Seq.cons []
      (Seq.concat_map
         (fun (x, xs) -> Seq.map (fun s -> x :: s) (subsets_up_to (k - 1) xs))
         (List.to_seq (tails [] l)))

let rec subsets_of_size k l =
  if k = 0 then Seq.return []
  else
    match l with
    | [] -> Seq.empty
    | x :: xs ->
      Seq.append
        (Seq.map (fun s -> x :: s) (subsets_of_size (k - 1) xs))
        (subsets_of_size k xs)

let rec tuples alphabet k =
  if k <= 0 then Seq.return []
  else
    Seq.concat_map
      (fun rest -> Seq.map (fun a -> a :: rest) (List.to_seq alphabet))
      (tuples alphabet (k - 1))

let nonempty_sublists l = Seq.filter (fun s -> s <> []) (subsets l)

let growth_strings len max_blocks =
  let rec go i used prefix () =
    if i = len then Seq.return (List.rev prefix) ()
    else
      let limit = min (used + 1) max_blocks in
      let rec choices v () =
        if v >= limit then Seq.Nil
        else
          Seq.Cons
            ( v,
              choices (v + 1) )
      in
      Seq.concat_map
        (fun v -> go (i + 1) (max used (v + 1)) (v :: prefix))
        (choices 0)
        ()
  in
  if len = 0 then Seq.return [] else go 0 0 []

let rec cartesian = function
  | [] -> Seq.return []
  | s :: rest ->
    Seq.concat_map
      (fun x -> Seq.map (fun xs -> x :: xs) (cartesian rest))
      s

let take n s = List.of_seq (Seq.take n s)
let seq_length s = Seq.fold_left (fun acc _ -> acc + 1) 0 s
