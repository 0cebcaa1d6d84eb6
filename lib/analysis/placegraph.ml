open Tgd_syntax

(* A place is one argument position of one atom occurrence of one rule —
   the refinement of [Termination.position] that super-weak acyclicity
   needs: two occurrences of the same relation in a rule are different
   places even though they share every position. *)
type place = { rule : int; atom : int; pos : int }

let place_compare a b =
  let c = Int.compare a.rule b.rule in
  if c <> 0 then c
  else
    let c = Int.compare a.atom b.atom in
    if c <> 0 then c else Int.compare a.pos b.pos

(* ------------------------------------------------------------------ *)
(* Skolemized terms and unification                                    *)
(* ------------------------------------------------------------------ *)

(* Variables are tagged with a namespace so the two atoms of a
   unification query are standardized apart without renaming. *)
type sterm =
  | SV of int * Variable.t
  | SF of string * sterm list

(* Skolemized head atom of rule [i]: existential variables become
   function terms over the (sorted) frontier.  The function symbol is
   unique per (rule, existential variable). *)
let skolemize ~ns rule_idx tgd atom =
  let frontier = Variable.Set.elements (Tgd.frontier tgd) in
  let existentials = Tgd.existential_vars tgd in
  Array.map
    (fun t ->
      match t with
      | Term.Const c -> SF ("const:" ^ Constant.to_string c, [])
      | Term.Var v ->
        if Variable.Set.mem v existentials then
          SF
            ( Printf.sprintf "sk_%d_%s" rule_idx (Variable.name v),
              List.map (fun x -> SV (ns, x)) frontier )
        else SV (ns, v))
    (Atom.args_arr atom)

let body_sterms ~ns atom =
  Array.map
    (fun t ->
      match t with
      | Term.Const c -> SF ("const:" ^ Constant.to_string c, [])
      | Term.Var v -> SV (ns, v))
    (Atom.args_arr atom)

module VKey = struct
  type t = int * Variable.t

  let compare (n1, v1) (n2, v2) =
    let c = Int.compare n1 n2 in
    if c <> 0 then c else Variable.compare v1 v2
end

module VMap = Map.Make (VKey)

let rec walk subst t =
  match t with
  | SV (ns, v) -> (
    match VMap.find_opt (ns, v) subst with
    | Some t' -> walk subst t'
    | None -> t)
  | SF _ -> t

let rec occurs subst key t =
  match walk subst t with
  | SV (ns, v) -> VKey.compare (ns, v) key = 0
  | SF (_, args) -> List.exists (occurs subst key) args

let rec unify subst t1 t2 =
  let t1 = walk subst t1 and t2 = walk subst t2 in
  match (t1, t2) with
  | SV (n1, v1), SV (n2, v2) when VKey.compare (n1, v1) (n2, v2) = 0 ->
    Some subst
  | SV (ns, v), t | t, SV (ns, v) ->
    if occurs subst (ns, v) t then None
    else Some (VMap.add (ns, v) t subst)
  | SF (f, a1), SF (g, a2) ->
    if String.equal f g && List.length a1 = List.length a2 then
      List.fold_left2
        (fun acc x y ->
          match acc with None -> None | Some s -> unify s x y)
        (Some subst) a1 a2
    else None

let atoms_unify a1 a2 =
  Array.length a1 = Array.length a2
  &&
  let rec go subst i =
    if i = Array.length a1 then true
    else
      match unify subst a1.(i) a2.(i) with
      | None -> false
      | Some s -> go s (i + 1)
  in
  go VMap.empty 0

(* ------------------------------------------------------------------ *)
(* Super-weak acyclicity (Marnette, PODS 2009)                         *)
(* ------------------------------------------------------------------ *)

type swa_witness = {
  moves : (int * place list) list;
  trigger_edges : (int * int) list;
}

type swa_refutation = { rule_cycle : int list }

(* Everything below works on precomputed per-rule views. *)
type view = {
  tgd : Tgd.t;
  body_atoms : Atom.t array;
  head_atoms : Atom.t array;
  body_sk : sterm array array;  (* namespace 1 *)
  head_sk : sterm array array;  (* namespace 0 *)
}

let view_of i tgd =
  let body_atoms = Array.of_list (Tgd.body tgd) in
  let head_atoms = Array.of_list (Tgd.head tgd) in
  { tgd;
    body_atoms;
    head_atoms;
    body_sk = Array.map (body_sterms ~ns:1) body_atoms;
    head_sk = Array.map (skolemize ~ns:0 i tgd) head_atoms
  }

(* [h] is a head place of [views.(h.rule)]; does the value sitting there
   move into body place [b]?  Same relation, same position, and the two
   atoms unify after skolemizing the head. *)
let moves_to views h b =
  let vh = views.(h.rule) and vb = views.(b.rule) in
  let ha = vh.head_atoms.(h.atom) and ba = vb.body_atoms.(b.atom) in
  h.pos = b.pos
  && Relation.equal (Atom.rel ha) (Atom.rel ba)
  && atoms_unify vh.head_sk.(h.atom) vb.body_sk.(b.atom)

let places_of_var atoms v =
  let acc = ref [] in
  Array.iteri
    (fun ai a ->
      Array.iteri
        (fun pos t ->
          match t with
          | Term.Var w when Variable.equal v w -> acc := (ai, pos) :: !acc
          | Term.Var _ | Term.Const _ -> ())
        (Atom.args_arr a))
    atoms;
  List.rev !acc

(* Move(Σ, Out(σ)) for rule [i], as the set of head places the nulls of
   [σ]'s existential variables can be copied out of.  Seeded with the head
   places of the existentials; closed under "some rule σ' has a variable
   v whose body places are all reachable from the set — then v's head
   places are reachable too". *)
let move_closure views i =
  let seed =
    let v = views.(i) in
    Variable.Set.fold
      (fun z acc ->
        List.map
          (fun (atom, pos) -> { rule = i; atom; pos })
          (places_of_var v.head_atoms z)
        @ acc)
      (Tgd.existential_vars v.tgd) []
  in
  let current = ref (List.sort_uniq place_compare seed) in
  let reaches b = List.exists (fun h -> moves_to views h b) !current in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun j vj ->
        Variable.Set.iter
          (fun v ->
            let bplaces =
              List.map
                (fun (atom, pos) -> { rule = j; atom; pos })
                (places_of_var vj.body_atoms v)
            in
            if bplaces <> [] && List.for_all reaches bplaces then begin
              let hplaces =
                List.map
                  (fun (atom, pos) -> { rule = j; atom; pos })
                  (places_of_var vj.head_atoms v)
              in
              let u =
                List.sort_uniq place_compare (hplaces @ !current)
              in
              if List.length u > List.length !current then begin
                current := u;
                changed := true
              end
            end)
          (Tgd.universal_vars vj.tgd))
      views;
    ()
  done;
  !current

(* σ ⊏ σ': a null of σ can move into some place of In(σ') — a body
   place of a {e frontier} variable of σ'.  A null binding a variable
   that never reaches the head cannot alter what σ' produces (the
   semi-oblivious chase keys firings on the frontier), so non-frontier
   places must not generate triggers: with them WA ⇒ SWA would fail on
   rules whose head shares no variable with the body. *)
let trigger_edges views moves =
  let n = Array.length views in
  let edges = ref [] in
  for i = 0 to n - 1 do
    let mv = List.assoc i moves in
    for j = 0 to n - 1 do
      let vj = views.(j) in
      let frontier = Tgd.frontier vj.tgd in
      let hit = ref false in
      Array.iteri
        (fun atom a ->
          if not !hit then
            Array.iteri
              (fun pos t ->
                if
                  (not !hit)
                  && (match t with
                     | Term.Var v -> Variable.Set.mem v frontier
                     | Term.Const _ -> false)
                  && List.exists
                       (fun h -> moves_to views h { rule = j; atom; pos })
                       mv
                then hit := true)
              (Atom.args_arr a))
        vj.body_atoms;
      if !hit then edges := (i, j) :: !edges
    done
  done;
  List.rev !edges

(* Cycle detection over rule indices with cycle extraction. *)
let find_cycle ~n edges =
  let succs i = List.filter_map (fun (a, b) -> if a = i then Some b else None) edges in
  let state = Array.make n `White in
  let cycle = ref None in
  let rec dfs stack i =
    match state.(i) with
    | `Black -> ()
    | `Gray ->
      if !cycle = None then begin
        let rec suffix = function
          | [] -> []
          | j :: rest -> if j = i then [ j ] else j :: suffix rest
        in
        cycle := Some (List.rev (suffix stack))
      end
    | `White ->
      state.(i) <- `Gray;
      List.iter (fun j -> if !cycle = None then dfs (j :: stack) j) (succs i);
      state.(i) <- `Black
  in
  for i = 0 to n - 1 do
    if !cycle = None then dfs [ i ] i
  done;
  !cycle

let analyse sigma =
  let views = Array.of_list (List.mapi view_of sigma) in
  let n = Array.length views in
  let moves = List.init n (fun i -> (i, move_closure views i)) in
  let edges = trigger_edges views moves in
  match find_cycle ~n edges with
  | Some rule_cycle -> Error { rule_cycle }
  | None -> Ok { moves; trigger_edges = edges }

let is_super_weakly_acyclic sigma =
  match analyse sigma with Ok _ -> true | Error _ -> false

let pp_refutation ppf r =
  Fmt.pf ppf "trigger cycle %a"
    Fmt.(list ~sep:(any " -> ") int)
    (r.rule_cycle @ [ List.hd r.rule_cycle ])
