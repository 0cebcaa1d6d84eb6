open Tgd_syntax

let star_var i = Variable.make (Printf.sprintf "*%d" i)
let const_var c = Variable.make ("x_" ^ Constant.to_string c)

let atomic_formulas schema consts l =
  let terms =
    List.map Term.const (Constant.Set.elements consts)
    @ List.init l (fun i -> Term.var (star_var (i + 1)))
  in
  List.concat_map
    (fun r ->
      Combinat.tuples terms (Relation.arity r)
      |> Seq.map (fun args -> Atom.make r args)
      |> List.of_seq)
    (Schema.relations schema)

type conjunct_filter = { max_atoms : int option }

let default_filter = { max_atoms = Some 2 }

let conjunctions filter atoms =
  match filter.max_atoms with
  | None -> Combinat.nonempty_sublists atoms
  | Some k -> Seq.filter (fun s -> s <> []) (Combinat.subsets_up_to k atoms)

(* A conjunction only matters up to renaming of its star variables; we do not
   canonicalize (harmless duplicates), but we do require that star variables
   are "anchored": a conjunct using star i without star i-1 is a renaming
   duplicate of one using lower indexes.  We keep all — correctness first. *)

let violated_conjuncts ?(filter = default_filter) i consts l =
  let atoms = atomic_formulas (Instance.schema i) consts l in
  conjunctions filter atoms
  |> Seq.filter (fun gamma -> not (Satisfaction.boolean_cq i gamma))
  |> List.of_seq

let rename_constants_to_vars atom =
  Atom.make_arr (Atom.rel atom)
    (Array.map
       (fun t ->
         match t with
         | Term.Const c -> Term.var (const_var c)
         | Term.Var _ -> t)
       (Atom.args_arr atom))

let claim_4_6_edd ?(filter = default_filter) ~k ~i ~m () =
  (* The paper assumes dom(K) = adom(K) (via domain independence); we take
     the active domain so that every x_c occurs in the edd body, as required
     by item (ii) of Claim 4.6. *)
  let consts = Instance.adom k in
  let body =
    List.map (fun f -> rename_constants_to_vars (Fact.to_atom f))
      (Instance.fact_list k)
  in
  let eq_disjuncts =
    let cs = Constant.Set.elements consts in
    List.concat_map
      (fun c ->
        List.filter_map
          (fun d ->
            if Constant.compare c d < 0 then
              Some (Edd.Eq (const_var c, const_var d))
            else None)
          cs)
      cs
  in
  let exists_disjuncts =
    violated_conjuncts ~filter i consts m
    |> List.map (fun gamma ->
           Edd.Exists (List.map rename_constants_to_vars gamma))
  in
  match eq_disjuncts @ exists_disjuncts with
  | [] -> None
  | disjuncts -> Some (Edd.make ~body ~disjuncts)

(* [J ⊨ ∃x̄ Φ^I_{K,m}(x̄)], given the Claim 4.6 edd δ for Φ: [J ⊭ δ]. *)
let satisfies_existential_diagram j delta = not (Satisfaction.edd j delta)

let lemma_4_3_holds ?filter ~k ~i ~m () =
  match claim_4_6_edd ?filter ~k ~i ~m () with
  | None -> true (* Φ has no negative conjunct and K's facts sit in I *)
  | Some delta -> satisfies_existential_diagram i delta
