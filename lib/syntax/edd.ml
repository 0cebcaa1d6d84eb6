type disjunct =
  | Eq of Variable.t * Variable.t
  | Exists of Atom.t list

type t = { body : Atom.t list; disjuncts : disjunct list }

let atoms_vars atoms =
  List.fold_left
    (fun acc a -> Variable.Set.union acc (Atom.vars a))
    Variable.Set.empty atoms

let constant_free atoms =
  List.for_all (fun a -> Constant.Set.is_empty (Atom.constants a)) atoms

let compare_disjunct d e =
  match d, e with
  | Eq (a, b), Eq (c, d) ->
    let cmp = Variable.compare a c in
    if cmp <> 0 then cmp else Variable.compare b d
  | Eq _, Exists _ -> -1
  | Exists _, Eq _ -> 1
  | Exists xs, Exists ys -> List.compare Atom.compare xs ys

let make ~body ~disjuncts =
  if disjuncts = [] then invalid_arg "Edd.make: empty disjunct list";
  if not (constant_free body) then invalid_arg "Edd.make: edds are constant-free";
  let bvars = atoms_vars body in
  List.iter
    (fun d ->
      match d with
      | Eq (y, z) ->
        if not (Variable.Set.mem y bvars && Variable.Set.mem z bvars) then
          invalid_arg "Edd.make: equality over non-body variables"
      | Exists [] -> invalid_arg "Edd.make: empty existential conjunction"
      | Exists atoms ->
        if not (constant_free atoms) then
          invalid_arg "Edd.make: edds are constant-free")
    disjuncts;
  { body = List.sort_uniq Atom.compare body;
    disjuncts =
      List.sort_uniq compare_disjunct
        (List.map
           (function
             | Eq _ as d -> d
             | Exists atoms -> Exists (List.sort_uniq Atom.compare atoms))
           disjuncts)
  }

let body d = d.body
let disjuncts d = d.disjuncts
let body_vars d = atoms_vars d.body
let n_universal d = Variable.Set.cardinal (body_vars d)

let existentials_of_disjunct bvars = function
  | Eq _ -> Variable.Set.empty
  | Exists atoms -> Variable.Set.diff (atoms_vars atoms) bvars

let m_existential d =
  let bvars = body_vars d in
  List.fold_left
    (fun acc disj ->
      max acc (Variable.Set.cardinal (existentials_of_disjunct bvars disj)))
    0 d.disjuncts

let in_e_nm ~n ~m d = n_universal d <= n && m_existential d <= m

let of_tgd s = make ~body:(Tgd.body s) ~disjuncts:[ Exists (Tgd.head s) ]

let as_tgd d =
  match d.disjuncts with
  | [ Exists atoms ] -> (
    try Some (Tgd.make ~body:d.body ~head:atoms)
    with Invalid_argument _ -> None)
  | _ -> None

let as_egd d =
  match d.disjuncts with
  | [ Eq (y, z) ] -> (
    try Some (Egd.make ~body:d.body y z) with Invalid_argument _ -> None)
  | _ -> None

let disjunct_dependencies d =
  List.filter_map
    (fun disj ->
      match disj with
      | Eq (y, z) -> (
        try Some (`Egd (Egd.make ~body:d.body y z))
        with Invalid_argument _ -> None)
      | Exists atoms -> (
        try Some (`Tgd (Tgd.make ~body:d.body ~head:atoms))
        with Invalid_argument _ -> None))
    d.disjuncts
