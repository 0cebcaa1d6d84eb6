open Tgd_syntax

type t = {
  schema : Schema.t;
  dom : Constant.Set.t;
  by_rel : Fact.Set.t Relation.Map.t;
}

let empty schema = { schema; dom = Constant.Set.empty; by_rel = Relation.Map.empty }

let check_fact schema f =
  if not (Schema.mem schema (Fact.rel f)) then
    invalid_arg
      (Printf.sprintf "Instance: fact %s uses a relation outside the schema"
         (Fact.to_string f))

let add_fact i f =
  check_fact i.schema f;
  { i with
    dom = Constant.Set.union i.dom (Fact.constants f);
    by_rel =
      Relation.Map.update (Fact.rel f)
        (function
          | None -> Some (Fact.Set.singleton f)
          | Some s -> Some (Fact.Set.add f s))
        i.by_rel
  }

let add_dom i c = { i with dom = Constant.Set.add c i.dom }

(* One pass groups the facts per relation, checking each relation against
   the schema at its first fact (so the failing fact is the one a fold of
   [add_fact] would reject); each set and the domain are then built in
   bulk. *)
let of_facts ?(dom = []) schema fact_list =
  let groups : (Relation.t, Fact.t list) Hashtbl.t = Hashtbl.create 16 in
  let consts = ref dom in
  List.iter
    (fun f ->
      let rel = Fact.rel f in
      (match Hashtbl.find_opt groups rel with
      | Some fs -> Hashtbl.replace groups rel (f :: fs)
      | None ->
        check_fact schema f;
        Hashtbl.replace groups rel [ f ]);
      Array.iter (fun c -> consts := c :: !consts) (Fact.tuple_arr f))
    fact_list;
  { schema;
    dom = Constant.Set.of_list !consts;
    by_rel =
      Hashtbl.fold
        (fun rel fs acc -> Relation.Map.add rel (Fact.Set.of_list fs) acc)
        groups Relation.Map.empty
  }

(* Checked like [of_facts], at each relation's least fact; the constants
   are the caller's promise, so no pass over them. *)
let extend i ~nulls sets =
  let by_rel =
    List.fold_left
      (fun acc (rel, s) ->
        if Fact.Set.is_empty s then acc
        else begin
          check_fact i.schema (Fact.Set.min_elt s);
          Relation.Map.update rel
            (function None -> Some s | Some old -> Some (Fact.Set.union old s))
            acc
        end)
      i.by_rel sets
  in
  { i with dom = Constant.Set.union i.dom nulls; by_rel }

let schema i = i.schema
let dom i = i.dom

let facts i =
  Relation.Map.fold (fun _ s acc -> Fact.Set.union s acc) i.by_rel Fact.Set.empty

let fact_list i = Fact.Set.elements (facts i)

let adom i =
  Relation.Map.fold
    (fun _ s acc ->
      Fact.Set.fold (fun f a -> Constant.Set.union (Fact.constants f) a) s acc)
    i.by_rel Constant.Set.empty

let facts_of i r =
  match Relation.Map.find_opt r i.by_rel with
  | Some s -> s
  | None -> Fact.Set.empty

let tuples_of i r = Fact.Set.fold (fun f acc -> Fact.tuple_arr f :: acc) (facts_of i r) []

let mem i f = Fact.Set.mem f (facts_of i (Fact.rel f))
let fact_count i = Relation.Map.fold (fun _ s acc -> acc + Fact.Set.cardinal s) i.by_rel 0
let dom_size i = Constant.Set.cardinal i.dom
let is_empty i = fact_count i = 0

let subset j i =
  Relation.Map.for_all (fun r s -> Fact.Set.subset s (facts_of i r)) j.by_rel

let equal_facts i j = subset i j && subset j i
let equal i j = equal_facts i j && Constant.Set.equal i.dom j.dom

let induced i d =
  let d = Constant.Set.inter d i.dom in
  let keep f = Constant.Set.subset (Fact.constants f) d in
  { i with
    dom = d;
    by_rel = Relation.Map.map (fun s -> Fact.Set.filter keep s) i.by_rel
  }

let is_induced_subinstance j i =
  Constant.Set.subset j.dom i.dom
  && equal_facts j (induced i j.dom)

let union i j =
  let schema = Schema.union i.schema j.schema in
  let by_rel =
    Relation.Map.union (fun _ a b -> Some (Fact.Set.union a b)) i.by_rel j.by_rel
  in
  { schema; dom = Constant.Set.union i.dom j.dom; by_rel }

let intersection i j =
  let schema = Schema.union i.schema j.schema in
  let by_rel =
    Relation.Map.merge
      (fun _ a b ->
        match a, b with
        | Some a, Some b -> Some (Fact.Set.inter a b)
        | _ -> None)
      i.by_rel j.by_rel
  in
  { schema; dom = Constant.Set.inter i.dom j.dom; by_rel }

let difference_active j' k =
  let by_rel =
    Relation.Map.map
      (fun s -> Fact.Set.filter (fun f -> not (mem k f)) s)
      j'.by_rel
  in
  let i = { j' with by_rel } in
  { i with dom = adom i }

let map_constants h i =
  let by_rel = Relation.Map.map (fun s -> Fact.Set.map (Fact.map h) s) i.by_rel in
  { i with dom = Constant.Set.map h i.dom; by_rel }

let with_dom i d =
  if not (Constant.Set.subset (adom i) d) then
    invalid_arg "Instance.with_dom: domain must contain the active domain";
  { i with dom = d }

let shrink_dom_to_adom i = { i with dom = adom i }
let active_part = shrink_dom_to_adom

let pp ppf i =
  let extra = Constant.Set.diff i.dom (adom i) in
  if Constant.Set.is_empty extra then
    Fmt.pf ppf "%a" Fact.Set.pp (facts i)
  else
    Fmt.pf ppf "%a (dom also: %a)" Fact.Set.pp (facts i)
      Fmt.(list ~sep:(any ", ") Constant.pp)
      (Constant.Set.elements extra)

let to_string i = Fmt.str "%a" pp i

let compare i j =
  let c = Fact.Set.compare (facts i) (facts j) in
  if c <> 0 then c else Constant.Set.compare i.dom j.dom

let disjoint_union i j =
  let clash = Constant.Set.inter (dom i) (dom j) in
  let fresh_counter = ref 5000 in
  let fresh_for_both () =
    let rec go () =
      incr fresh_counter;
      let c = Constant.indexed !fresh_counter in
      if Constant.Set.mem c (dom i) || Constant.Set.mem c (dom j) then go ()
      else c
    in
    go ()
  in
  let renaming =
    Constant.Set.fold
      (fun c acc -> Constant.Map.add c (fresh_for_both ()) acc)
      clash Constant.Map.empty
  in
  let rename c =
    match Constant.Map.find_opt c renaming with Some d -> d | None -> c
  in
  (union i (map_constants rename j), rename)
