type t = Constant.t Variable.Map.t

let empty = Variable.Map.empty
let singleton = Variable.Map.singleton
let of_list l = List.fold_left (fun m (v, c) -> Variable.Map.add v c m) empty l
let to_list = Variable.Map.bindings
let find = Variable.Map.find_opt
let add = Variable.Map.add

let extend v c h =
  match Variable.Map.find_opt v h with
  | None -> Some (Variable.Map.add v c h)
  | Some c' -> if Constant.equal c c' then Some h else None

let domain h =
  Variable.Map.fold (fun v _ acc -> Variable.Set.add v acc) h Variable.Set.empty

let range h =
  Variable.Map.fold (fun _ c acc -> Constant.Set.add c acc) h Constant.Set.empty

let cardinal = Variable.Map.cardinal
let restrict vs h = Variable.Map.filter (fun v _ -> Variable.Set.mem v vs) h

let merge h g =
  Variable.Map.fold
    (fun v c acc ->
      match acc with None -> None | Some m -> extend v c m)
    g (Some h)

let ground_atom h a =
  let exception Unbound in
  try
    Some
      (Fact.make_arr (Atom.rel a)
         (Array.map
            (fun t ->
              match t with
              | Term.Const c -> c
              | Term.Var v -> (
                match find v h with Some c -> c | None -> raise Unbound))
            (Atom.args_arr a)))
  with Unbound -> None

let ground_atoms h atoms =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | a :: rest -> (
      match ground_atom h a with
      | Some f -> go (f :: acc) rest
      | None -> None)
  in
  go [] atoms

let is_injective h =
  let range_card = Constant.Set.cardinal (range h) in
  range_card = cardinal h

let pp ppf h =
  Fmt.pf ppf "[%a]"
    Fmt.(
      list ~sep:(any "; ")
        (pair ~sep:(any "↦") Variable.pp Constant.pp))
    (to_list h)
