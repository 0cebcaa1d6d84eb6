open Tgd_syntax

let rels_of atoms =
  List.fold_left
    (fun acc a -> Relation.Set.add (Atom.rel a) acc)
    Relation.Set.empty atoms

type rule_rels = { body : Relation.Set.t; head : Relation.Set.t }

type t = {
  rules : rule_rels list;
  nodes : Relation.Set.t;
  succs : Relation.Set.t Relation.Map.t;
}

let make sigma =
  let rules =
    List.map
      (fun s ->
        { body = rels_of (Tgd.body s); head = rels_of (Tgd.head s) })
      sigma
  in
  let nodes =
    List.fold_left
      (fun acc r -> Relation.Set.union acc (Relation.Set.union r.body r.head))
      Relation.Set.empty rules
  in
  let succs =
    List.fold_left
      (fun acc r ->
        Relation.Set.fold
          (fun src acc ->
            let old =
              Option.value ~default:Relation.Set.empty
                (Relation.Map.find_opt src acc)
            in
            Relation.Map.add src (Relation.Set.union old r.head) acc)
          r.body acc)
      Relation.Map.empty rules
  in
  { rules; nodes; succs }

let relations g = g.nodes

let succ g r =
  Option.value ~default:Relation.Set.empty (Relation.Map.find_opt r g.succs)

let edb g =
  let heads =
    List.fold_left
      (fun acc r -> Relation.Set.union acc r.head)
      Relation.Set.empty g.rules
  in
  Relation.Set.diff g.nodes heads

(* Tarjan's algorithm, iterative bookkeeping via explicit recursion on the
   (small) predicate graphs at hand. *)
let sccs g =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    Relation.Set.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if Relation.equal w v then w :: acc else pop (w :: acc)
      in
      out := List.sort Relation.compare (pop []) :: !out
    end
  in
  Relation.Set.iter
    (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
    g.nodes;
  (* Tarjan emits sink components first (callers before callees in our
     edge direction); accumulating with [::] reverses that into the
     callees-first order [strata] needs. *)
  !out

let strata g =
  let components = sccs g in
  let comp_id = Hashtbl.create 16 in
  List.iteri
    (fun i comp -> List.iter (fun r -> Hashtbl.replace comp_id r i) comp)
    components;
  (* components arrive callees-first, so one left-to-right pass suffices *)
  let level = Hashtbl.create 16 in
  List.iteri
    (fun i comp ->
      let lvl = ref 0 in
      List.iter
        (fun r ->
          Relation.Set.iter
            (fun p ->
              if Relation.Set.mem r (succ g p) then begin
                let pi = Hashtbl.find comp_id p in
                if pi <> i then
                  lvl :=
                    max !lvl
                      (1 + Option.value ~default:0 (Hashtbl.find_opt level pi))
              end)
            g.nodes)
        comp;
      Hashtbl.replace level i !lvl)
    components;
  Relation.Set.fold
    (fun r acc ->
      Relation.Map.add r (Hashtbl.find level (Hashtbl.find comp_id r)) acc)
    g.nodes Relation.Map.empty

let recursive g =
  List.fold_left
    (fun acc comp ->
      match comp with
      | [ r ] ->
        if Relation.Set.mem r (succ g r) then Relation.Set.add r acc else acc
      | rs -> List.fold_left (fun acc r -> Relation.Set.add r acc) acc rs)
    Relation.Set.empty (sccs g)

let close g from =
  let d = ref from in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        if Relation.Set.subset r.body !d
           && not (Relation.Set.subset r.head !d)
        then begin
          d := Relation.Set.union !d r.head;
          changed := true
        end)
      g.rules
  done;
  !d

let derivable sigma ~from = close (make sigma) from

let dead_rules sigma =
  let g = make sigma in
  let reachable = derivable sigma ~from:(edb g) in
  List.concat
    (List.mapi
       (fun i s ->
         if Relation.Set.subset (rels_of (Tgd.body s)) reachable then []
         else [ i ])
       sigma)

let underived sigma =
  let g = make sigma in
  let reachable = derivable sigma ~from:(edb g) in
  Relation.Set.diff g.nodes reachable

let unconsumed sigma =
  let g = make sigma in
  let bodies =
    List.fold_left
      (fun acc r -> Relation.Set.union acc r.body)
      Relation.Set.empty g.rules
  in
  let heads =
    List.fold_left
      (fun acc r -> Relation.Set.union acc r.head)
      Relation.Set.empty g.rules
  in
  Relation.Set.diff heads bodies
