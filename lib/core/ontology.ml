open Tgd_syntax
open Tgd_instance

type kind =
  | Axiomatic of Tgd.t list
  | Extensional of Instance.t list
  | Oracle of (Instance.t -> bool)

type t = { name : string; schema : Schema.t; kind : kind }

let tgd_in_schema schema s =
  List.for_all
    (fun a -> Schema.mem schema (Atom.rel a))
    (Tgd.body s @ Tgd.head s)

let axiomatic ?name schema sigma =
  if not (List.for_all (tgd_in_schema schema) sigma) then
    invalid_arg "Ontology.axiomatic: tgd uses a relation outside the schema";
  let name =
    match name with
    | Some n -> n
    | None -> Fmt.str "Mod(%a)" Fmt.(list ~sep:(any "; ") Tgd.pp) sigma
  in
  { name; schema; kind = Axiomatic sigma }

let extensional ?(name = "extensional") schema instances =
  { name; schema; kind = Extensional instances }

let oracle ?(name = "oracle") schema mem = { name; schema; kind = Oracle mem }

let schema o = o.schema
let axioms o = match o.kind with Axiomatic s -> Some s | _ -> None

let mem o i =
  match o.kind with
  | Axiomatic sigma -> Satisfaction.tgds i sigma
  | Extensional instances -> List.exists (Hom.isomorphic i) instances
  | Oracle f -> f i

let models_up_to o k =
  Seq.filter (mem o) (Enumerate.instances_up_to o.schema k)

let non_members_up_to o k =
  Seq.filter (fun i -> not (mem o i)) (Enumerate.instances_up_to o.schema k)

let chase_witness ?budget o k =
  match o.kind with
  | Axiomatic sigma ->
    let result = Tgd_chase.Chase.restricted ?budget sigma k in
    if Tgd_chase.Chase.is_model result then Some result.Tgd_chase.Chase.instance
    else None
  | Extensional _ | Oracle _ -> None

let member_extending ?(max_extra = 1) o k =
  let base_dom = Constant.Set.elements (Instance.adom k) in
  let fresh =
    let rec go n acc i =
      if n = 0 then List.rev acc
      else
        let c = Constant.indexed i in
        if Constant.Set.mem c (Instance.adom k) then go n acc (i + 1)
        else go (n - 1) (c :: acc) (i + 1)
    in
    go max_extra [] 100
  in
  Seq.init (max_extra + 1) (fun extra -> extra)
  |> Seq.concat_map (fun extra ->
         let domain = base_dom @ List.filteri (fun i _ -> i < extra) fresh in
         let facts = Enumerate.all_facts o.schema domain in
         Combinat.subsets facts
         |> Seq.filter_map (fun fs ->
                let j = Instance.of_facts ~dom:domain o.schema fs in
                if Instance.subset k j && mem o j then Some j else None))

let restrict_mem o p =
  oracle ~name:(o.name ^ "+restriction") o.schema (fun i -> mem o i && p i)

let of_theory ?(name = "theory") schema th =
  oracle ~name schema (fun i -> Tgd_chase.Theory.satisfies i th)
