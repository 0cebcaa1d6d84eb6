type t =
  | Named of string
  | Indexed of int
  | Pair of t * t
  | Null of int

let named s = Named s
let indexed i = Indexed i
let pair a b = Pair (a, b)
let null i = Null i

let rec compare c d =
  match c, d with
  | Named a, Named b -> String.compare a b
  | Named _, _ -> -1
  | _, Named _ -> 1
  | Indexed a, Indexed b -> Int.compare a b
  | Indexed _, _ -> -1
  | _, Indexed _ -> 1
  | Pair (a1, a2), Pair (b1, b2) ->
    let c1 = compare a1 b1 in
    if c1 <> 0 then c1 else compare a2 b2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | Null a, Null b -> Int.compare a b

let equal c d = compare c d = 0

let rec is_null = function
  | Null _ -> true
  | Pair (a, b) -> is_null a || is_null b
  | Named _ | Indexed _ -> false

let first = function
  | Pair (a, _) -> a
  | Named _ | Indexed _ | Null _ -> invalid_arg "Constant.first: not a pair"

let second = function
  | Pair (_, b) -> b
  | Named _ | Indexed _ | Null _ -> invalid_arg "Constant.second: not a pair"

let rec pp ppf = function
  | Named s -> Fmt.string ppf s
  | Indexed i -> Fmt.pf ppf "c%d" i
  | Pair (a, b) -> Fmt.pf ppf "(%a,%a)" pp a pp b
  | Null i -> Fmt.pf ppf "_n%d" i

let to_string c = Fmt.str "%a" pp c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let set_of_list cs = Set.of_list cs
