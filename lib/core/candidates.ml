open Tgd_syntax

type caps = {
  max_body_atoms : int;
  max_head_atoms : int;
  keep_tautologies : bool;
}

let default_caps =
  { max_body_atoms = 2; max_head_atoms = 2; keep_tautologies = false }

let uvar i = Variable.indexed "x" i
let evar i = Variable.indexed "z" i

let atoms_over schema vars =
  if vars = [] then
    (* only 0-ary atoms are expressible *)
    List.filter_map
      (fun r -> if Relation.arity r = 0 then Some (Atom.make r []) else None)
      (Schema.relations schema)
  else
    List.concat_map
      (fun r ->
        Combinat.tuples (List.map Term.var vars) (Relation.arity r)
        |> Seq.map (fun args -> Atom.make r args)
        |> List.of_seq)
      (Schema.relations schema)

(* Existential variables of a head conjunction must form a prefix
   z0, …, z_{t-1} of the pool — other choices are renamings. *)
let evars_prefix_ok m atoms =
  m = 0
  ||
  let used =
    List.fold_left
      (fun acc a -> Variable.Set.union acc (Atom.vars a))
      Variable.Set.empty atoms
  in
  let rec go i seen_gap ok =
    if i >= m then ok
    else
      let present = Variable.Set.mem (evar i) used in
      if present && seen_gap then false
      else go (i + 1) (seen_gap || not present) ok
  in
  go 0 false true

let head_conjunctions caps schema uvars ~m =
  let alphabet = uvars @ List.init m evar in
  let pool = atoms_over schema alphabet in
  Combinat.subsets_up_to caps.max_head_atoms pool
  |> Seq.filter (fun atoms -> atoms <> [] && evars_prefix_ok m atoms)

(* Single-atom body patterns over at most [n] variables, canonical via
   restricted growth strings. *)
let single_atom_bodies schema ~n =
  Schema.relations schema
  |> List.to_seq
  |> Seq.concat_map (fun r ->
         Combinat.growth_strings (Relation.arity r) n
         |> Seq.map (fun pattern ->
                Atom.make r (List.map (fun i -> Term.var (uvar i)) pattern)))

let used_vars atoms =
  List.fold_left
    (fun acc a -> Variable.Set.union acc (Atom.vars a))
    Variable.Set.empty atoms
  |> Variable.Set.elements

(* Entailment by the empty theory needs no chase at all: the static
   head-into-body homomorphism check decides it ({!Tgd_analysis.Lint}),
   and keeps the enumerators off the entailment caches entirely. *)
let is_tautology = Tgd_analysis.Lint.tautological

let dedup_canonical seq =
  let seen = ref Tgd.Set.empty in
  Seq.filter_map
    (fun s ->
      let c = Canonical.tgd s in
      if Tgd.Set.mem c !seen then None
      else begin
        seen := Tgd.Set.add c !seen;
        Some c
      end)
    seq

let assemble caps bodies_with_heads =
  bodies_with_heads
  |> Seq.filter_map (fun (body, head) ->
         match Tgd.make ~body ~head with
         | s -> Some s
         | exception Invalid_argument _ -> None)
  |> Seq.filter (fun s -> caps.keep_tautologies || not (is_tautology s))
  |> dedup_canonical

let bodiless caps schema ~m =
  if m = 0 then Seq.empty
  else
    head_conjunctions caps schema [] ~m
    |> Seq.map (fun head -> ([], head))

(* [Lint.tautological] for a one-atom body [b]: the head maps into the
   frozen [b] exactly when every head atom is over [b]'s relation and
   position [i] of it maps to [b]'s term at [i] — each body variable to
   itself, each existential to one term throughout. *)
let tautological_over b head =
  let bargs = Atom.args_arr b in
  let image =
    ref (Array.fold_left (fun acc t -> (t, t) :: acc) [] bargs)
  in
  List.for_all
    (fun h ->
      Relation.equal (Atom.rel h) (Atom.rel b)
      && Array.for_all2
           (fun t bt ->
             match List.assoc_opt t !image with
             | Some u -> Term.compare u bt = 0
             | None ->
               image := (t, bt) :: !image;
               true)
           (Atom.args_arr h) bargs)
    head

(* One linear body's candidates, in head order.  The body is a restricted
   growth string or empty, so it is its own canonical form: candidates
   over different bodies are never renamings of each other, and within
   one body only the naming of existentials can make two alike.  Heads
   without existentials are therefore already canonical; the others are
   canonicalized and deduplicated against this body's alone. *)
let linear_of_body caps ~m body heads () =
  let seen = ref Tgd.Set.empty in
  let representative s =
    if m = 0 || Variable.Set.is_empty (Tgd.existential_vars s) then Some s
    else
      let c = Canonical.tgd s in
      if Tgd.Set.mem c !seen then None
      else begin
        seen := Tgd.Set.add c !seen;
        Some c
      end
  in
  Seq.filter_map
    (fun head ->
      match Tgd.make ~body ~head with
      | exception Invalid_argument _ -> None
      | s -> (
        match body with
        | [ b ] when (not caps.keep_tautologies) && tautological_over b head ->
          None
        | _ -> representative s))
    heads ()

let linear ?(caps = default_caps) schema ~n ~m =
  let bodiless =
    if m = 0 then Seq.empty
    else linear_of_body caps ~m [] (head_conjunctions caps schema [] ~m)
  in
  single_atom_bodies schema ~n
  |> Seq.concat_map (fun b ->
         linear_of_body caps ~m [ b ]
           (head_conjunctions caps schema (used_vars [ b ]) ~m))
  |> Seq.append bodiless

let guarded ?(caps = default_caps) schema ~n ~m =
  let with_body =
    single_atom_bodies schema ~n
    |> Seq.concat_map (fun guard ->
           let gvars = used_vars [ guard ] in
           let side_pool =
             List.filter
               (fun a -> not (Atom.equal a guard))
               (atoms_over schema gvars)
           in
           Combinat.subsets_up_to (max 0 (caps.max_body_atoms - 1)) side_pool
           |> Seq.concat_map (fun side ->
                  let body = guard :: side in
                  head_conjunctions caps schema gvars ~m
                  |> Seq.map (fun head -> (body, head))))
  in
  assemble caps (Seq.append (bodiless caps schema ~m) with_body)

let generic ?(caps = default_caps) schema ~n ~m =
  let body_pool = atoms_over schema (List.init n uvar) in
  let with_body =
    Combinat.subsets_up_to caps.max_body_atoms body_pool
    |> Seq.filter (fun body -> body <> [])
    |> Seq.concat_map (fun body ->
           head_conjunctions caps schema (used_vars body) ~m
           |> Seq.map (fun head -> (body, head)))
  in
  assemble caps (Seq.append (bodiless caps schema ~m) with_body)

let full ?caps schema ~n = generic ?caps schema ~n ~m:0

let frontier_guarded ?caps schema ~n ~m =
  Seq.filter Tgd_class.is_frontier_guarded (generic ?caps schema ~n ~m)

let atom_pool_size schema vars_count =
  List.fold_left
    (fun acc r ->
      acc
      + int_of_float
          (float_of_int vars_count ** float_of_int (Relation.arity r)))
    0
    (Schema.relations schema)

let linear_complete caps schema ~n ~m =
  caps.max_head_atoms >= atom_pool_size schema (n + m)

let guarded_complete caps schema ~n ~m =
  linear_complete caps schema ~n ~m
  && caps.max_body_atoms - 1 >= atom_pool_size schema n

let count seq = Seq.fold_left (fun acc _ -> acc + 1) 0 seq

let generic_complete caps schema ~n ~m =
  caps.max_head_atoms >= atom_pool_size schema (n + m)
  && caps.max_body_atoms >= atom_pool_size schema n
