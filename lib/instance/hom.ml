open Tgd_syntax

let match_atom binding atom fact =
  let args = Atom.args_arr atom in
  let tup = Fact.tuple_arr fact in
  let n = Array.length args in
  let rec go i b =
    if i = n then Some b
    else
      match args.(i) with
      | Term.Const c ->
        if Constant.equal c tup.(i) then go (i + 1) b else None
      | Term.Var v -> (
        match Binding.extend v tup.(i) b with
        | Some b' -> go (i + 1) b'
        | None -> None)
  in
  go 0 binding

(* Greedy atom ordering: prefer atoms with many already-bound variables and
   few candidate facts (the earliest atom on ties); dramatically narrows
   the backtracking tree.  Each atom's bound-variable count is kept up to
   date as variables get bound, so a step costs a scan of integers. *)
let order_atoms partial atoms inst =
  let arr = Array.of_list atoms in
  let n = Array.length arr in
  let vars = Array.map Atom.var_list arr in
  let candidates =
    Array.map (fun a -> Fact.Set.cardinal (Instance.facts_of inst (Atom.rel a))) arr
  in
  let occurs : (Variable.t, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i vs ->
      List.iter
        (fun v ->
          Hashtbl.replace occurs v
            (i :: Option.value ~default:[] (Hashtbl.find_opt occurs v)))
        vs)
    vars;
  let bound_vars = Array.make n 0 in
  let bound : (Variable.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let bind v =
    if not (Hashtbl.mem bound v) then begin
      Hashtbl.add bound v ();
      List.iter
        (fun i -> bound_vars.(i) <- bound_vars.(i) + 1)
        (Option.value ~default:[] (Hashtbl.find_opt occurs v))
    end
  in
  Variable.Set.iter bind (Binding.domain partial);
  let used = Array.make n false in
  let out = ref [] in
  for _ = 1 to n do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if not used.(i) then
        if
          !best < 0
          || bound_vars.(i) > bound_vars.(!best)
          || bound_vars.(i) = bound_vars.(!best)
             && candidates.(i) < candidates.(!best)
        then best := i
    done;
    used.(!best) <- true;
    out := arr.(!best) :: !out;
    List.iter bind vars.(!best)
  done;
  List.rev !out

let rec solve inst binding = function
  | [] -> Seq.return binding
  | atom :: rest ->
    Fact.Set.to_seq (Instance.facts_of inst (Atom.rel atom))
    |> Seq.filter_map (fun f -> match_atom binding atom f)
    |> Seq.concat_map (fun b -> solve inst b rest)

let all_homs ?(partial = Binding.empty) atoms inst =
  solve inst partial (order_atoms partial atoms inst)

let find_hom ?partial atoms inst =
  match (all_homs ?partial atoms inst) () with
  | Seq.Nil -> None
  | Seq.Cons (b, _) -> Some b

let exists_hom ?partial atoms inst = find_hom ?partial atoms inst <> None

(* Instance homomorphisms: encode adom(from) constants as variables and reuse
   the query engine.  Each search names its variables in its own table, so
   concurrent searches on pool workers never share one. *)

let var_of_const tbl c =
  match Hashtbl.find_opt tbl c with
  | Some v -> v
  | None ->
    let v = Variable.make (Printf.sprintf "!c%d" (Hashtbl.length tbl)) in
    Hashtbl.add tbl c v;
    v

let encode_instance tbl fixed from =
  let atom_of_fact f =
    Atom.make_arr (Fact.rel f)
      (Array.map
         (fun c ->
           match Constant.Map.find_opt c fixed with
           | Some d -> Term.const d
           | None -> Term.var (var_of_const tbl c))
         (Fact.tuple_arr f))
  in
  List.map atom_of_fact (Instance.fact_list from)

let decode tbl fixed from binding =
  Constant.Set.fold
    (fun c acc ->
      match Constant.Map.find_opt c fixed with
      | Some d -> Constant.Map.add c d acc
      | None -> (
        match Binding.find (var_of_const tbl c) binding with
        | Some d -> Constant.Map.add c d acc
        | None -> acc))
    (Instance.adom from) Constant.Map.empty

let map_injective m =
  let seen = Hashtbl.create 16 in
  Constant.Map.for_all
    (fun _ d ->
      if Hashtbl.mem seen d then false
      else (
        Hashtbl.add seen d ();
        true))
    m

let instance_homs ?(fixed = Constant.Map.empty) ?(injective = false) from into =
  let tbl : (Constant.t, Variable.t) Hashtbl.t = Hashtbl.create 64 in
  let atoms = encode_instance tbl fixed from in
  all_homs atoms into
  |> Seq.map (decode tbl fixed from)
  |> Seq.filter (fun m -> (not injective) || map_injective m)

let find_instance_hom ?fixed ?injective from into =
  match (instance_homs ?fixed ?injective from into) () with
  | Seq.Nil -> None
  | Seq.Cons (m, _) -> Some m

let embeds_fixing f j' i =
  let fixed =
    Constant.Set.fold
      (fun c acc -> Constant.Map.add c c acc)
      (Constant.Set.inter f (Instance.adom j'))
      Constant.Map.empty
  in
  find_instance_hom ~fixed j' i <> None

let isomorphic i j =
  Constant.Set.cardinal (Instance.dom i) = Constant.Set.cardinal (Instance.dom j)
  && Instance.fact_count i = Instance.fact_count j
  && List.sort_uniq Relation.compare
       (Schema.relations (Instance.schema i)
       @ Schema.relations (Instance.schema j))
     |> List.for_all (fun r ->
            Fact.Set.cardinal (Instance.facts_of i r)
            = Fact.Set.cardinal (Instance.facts_of j r))
  && find_instance_hom ~injective:true i j <> None

let hom_equivalent i j =
  find_instance_hom i j <> None && find_instance_hom j i <> None
