type t = { body : Atom.t list }

let make body =
  if body = [] then invalid_arg "Denial.make: empty body";
  if
    not
      (List.for_all
         (fun a -> Constant.Set.is_empty (Atom.constants a))
         body)
  then invalid_arg "Denial.make: denial constraints are constant-free";
  { body = List.sort_uniq Atom.compare body }

let body d = d.body

let pp ppf d =
  Fmt.pf ppf "%a -> ⊥" Fmt.(list ~sep:(any ", ") Atom.pp) d.body
