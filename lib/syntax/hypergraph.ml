(* Classic GYO reduction with the two rewrite rules:

   (1) delete a vertex that occurs in exactly one hyperedge;
   (2) delete a hyperedge that is empty or contained in another hyperedge.

   The hypergraph is α-acyclic iff the rules empty it. *)

let edges_of atoms = List.map Atom.vars atoms

let delete_exclusive_vertices edges =
  let occurrence_count v =
    List.length (List.filter (fun e -> Variable.Set.mem v e) edges)
  in
  List.map
    (fun e -> Variable.Set.filter (fun v -> occurrence_count v > 1) e)
    edges

let delete_subsumed edges =
  let rec go kept = function
    | [] -> List.rev kept
    | e :: rest ->
      let subsumed_by_other =
        Variable.Set.is_empty e
        || List.exists (fun w -> Variable.Set.subset e w) rest
        || List.exists (fun w -> Variable.Set.subset e w) kept
      in
      if subsumed_by_other then go kept rest else go (e :: kept) rest
  in
  go [] edges

let rec reduce edges =
  let edges' = delete_subsumed (delete_exclusive_vertices edges) in
  if List.length edges' = List.length edges
     && List.for_all2 Variable.Set.equal
          (List.sort Variable.Set.compare edges')
          (List.sort Variable.Set.compare edges)
  then edges
  else reduce edges'

let gyo_residual atoms = reduce (edges_of atoms)
let is_acyclic atoms = gyo_residual atoms = []
