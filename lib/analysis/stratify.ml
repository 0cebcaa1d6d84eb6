open Tgd_syntax

type t = {
  n_rules : int;
  edges : (int * int) list;
  strata : int list list;
}

let head_rels tgd =
  List.fold_left
    (fun acc a -> Relation.Set.add (Atom.rel a) acc)
    Relation.Set.empty (Tgd.head tgd)

let body_rels tgd =
  List.fold_left
    (fun acc a -> Relation.Set.add (Atom.rel a) acc)
    Relation.Set.empty (Tgd.body tgd)

(* Relation-level over-approximation of the chase precedence: firing [i]
   can only enable a new trigger of [j] if some head relation of [i]
   occurs in the body of [j].  Over-approximating only merges strata —
   it never splits rules that genuinely feed each other, so composing
   per-stratum certificates along this graph stays sound. *)
let precedence sigma =
  let arr = Array.of_list sigma in
  let n = Array.length arr in
  let heads = Array.map head_rels arr in
  let bodies = Array.map body_rels arr in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not (Relation.Set.is_empty (Relation.Set.inter heads.(i) bodies.(j)))
      then edges := (i, j) :: !edges
    done
  done;
  List.rev !edges

(* Tarjan's strongly connected components, emitted in reverse topological
   order of the condensation and then reversed: sources (strata no other
   stratum feeds) come first, so a left-to-right pass respects the chase
   order. *)
let sccs ~n edges =
  let succs = Array.make n [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) edges;
  let index = ref 0 in
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let out = ref [] in
  let rec strong v =
    idx.(v) <- !index;
    low.(v) <- !index;
    incr index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if idx.(w) = -1 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) idx.(w))
      succs.(v);
    if low.(v) = idx.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := List.sort Int.compare (pop []) :: !out
    end
  in
  for v = 0 to n - 1 do
    if idx.(v) = -1 then strong v
  done;
  (* Tarjan emits components in reverse topological order *)
  !out

let build sigma =
  let n = List.length sigma in
  let edges = precedence sigma in
  { n_rules = n; edges; strata = sccs ~n edges }

let is_trivial t = List.length t.strata <= 1

let rules_of sigma indices =
  let arr = Array.of_list sigma in
  List.map (fun i -> arr.(i)) indices
