type t = { body : Atom.t list; lhs : Variable.t; rhs : Variable.t }

let make ~body lhs rhs =
  if body = [] then invalid_arg "Egd.make: empty body";
  if
    not
      (List.for_all
         (fun a -> Constant.Set.is_empty (Atom.constants a))
         body)
  then invalid_arg "Egd.make: egds are constant-free";
  let vs =
    List.fold_left
      (fun acc a -> Variable.Set.union acc (Atom.vars a))
      Variable.Set.empty body
  in
  if not (Variable.Set.mem lhs vs && Variable.Set.mem rhs vs) then
    invalid_arg "Egd.make: equated variables must occur in the body";
  { body = List.sort_uniq Atom.compare body; lhs; rhs }

let body e = e.body
let lhs e = e.lhs
let rhs e = e.rhs

let vars e =
  List.fold_left
    (fun acc a -> Variable.Set.union acc (Atom.vars a))
    Variable.Set.empty e.body

let n_universal e = Variable.Set.cardinal (vars e)
let is_trivial e = Variable.equal e.lhs e.rhs

let compare e f =
  let c = List.compare Atom.compare e.body f.body in
  if c <> 0 then c
  else
    let c = Variable.compare e.lhs f.lhs in
    if c <> 0 then c else Variable.compare e.rhs f.rhs

let pp ppf e =
  Fmt.pf ppf "%a -> %a = %a"
    Fmt.(list ~sep:(any ", ") Atom.pp)
    e.body Variable.pp e.lhs Variable.pp e.rhs
