type t = { name : string; arity : int }

let make name arity =
  if String.length name = 0 then invalid_arg "Relation.make: empty name";
  if arity < 0 then invalid_arg "Relation.make: negative arity";
  { name; arity }

let name r = r.name
let arity r = r.arity

let compare r s =
  let c = String.compare r.name s.name in
  if c <> 0 then c else Int.compare r.arity s.arity

let equal r s = compare r s = 0
let pp ppf r = Fmt.pf ppf "%s/%d" r.name r.arity

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
