open Tgd_syntax
open Tgd_instance
open Helpers

let s2 = schema [ ("R", 2); ("P", 1) ]

let i0 = inst ~schema:s2 "R(a,b). R(b,c). P(a)."

let test_basic () =
  check_int "fact count" 3 (Instance.fact_count i0);
  check_int "adom" 3 (Constant.Set.cardinal (Instance.adom i0));
  check_int "dom" 3 (Instance.dom_size i0);
  check_bool "mem" true (Instance.mem i0 (Fact.make (Relation.make "R" 2) [ c "a"; c "b" ]));
  check_bool "not mem" false
    (Instance.mem i0 (Fact.make (Relation.make "R" 2) [ c "b"; c "a" ]));
  check_bool "empty is empty" true (Instance.is_empty (Instance.empty s2))

let test_dom_vs_adom () =
  let i = Instance.add_dom i0 (c "zz") in
  check_int "dom grows" 4 (Instance.dom_size i);
  check_int "adom unchanged" 3 (Constant.Set.cardinal (Instance.adom i));
  check_bool "facts unchanged" true (Instance.equal_facts i i0);
  check_bool "instances differ" false (Instance.equal i i0);
  check_bool "active part recovers" true (Instance.equal (Instance.active_part i) i0)

let test_schema_enforced () =
  Alcotest.check_raises "foreign relation"
    (Invalid_argument "Instance: fact Q(a) uses a relation outside the schema")
    (fun () ->
      ignore (Instance.add_fact i0 (Fact.make (Relation.make "Q" 1) [ c "a" ])))

let test_subset_vs_induced () =
  (* J ⊆ I but not J ≤ I: drop R(b,c) while keeping c in I's domain *)
  let j = inst ~schema:s2 "R(a,b). P(a)." in
  check_bool "subset" true (Instance.subset j i0);
  check_bool "not induced (drops a fact over its dom)" false
    (Instance.is_induced_subinstance (Instance.add_dom j (c "c")) i0);
  (* the induced subinstance on {a,b} *)
  let k = Instance.induced i0 (Constant.set_of_list [ c "a"; c "b" ]) in
  check_bool "induced ≤" true (Instance.is_induced_subinstance k i0);
  check_bool "induced = j on {a,b}" true (Instance.equal_facts k j);
  (* ≤ implies ⊆ (paper, Section 2) *)
  check_bool "≤ implies ⊆" true (Instance.subset k i0)

let test_induced_full_dom () =
  let k = Instance.induced i0 (Instance.dom i0) in
  check_bool "induced on dom is identity" true (Instance.equal k i0)

let test_union_intersection () =
  let a = inst ~schema:s2 "R(a,b). P(a)." in
  let b = inst ~schema:s2 "R(a,b). P(b)." in
  let u = Instance.union a b in
  let n = Instance.intersection a b in
  check_int "union facts" 3 (Instance.fact_count u);
  check_int "inter facts" 1 (Instance.fact_count n);
  check_bool "inter dom" true
    (Constant.Set.equal (Instance.dom n)
       (Constant.set_of_list [ c "a"; c "b" ]));
  (* commutativity *)
  check_bool "union comm" true (Instance.equal u (Instance.union b a));
  check_bool "inter comm" true (Instance.equal n (Instance.intersection b a))

let test_difference_active () =
  let k = inst ~schema:s2 "R(a,b)." in
  let l = Instance.difference_active i0 k in
  check_int "difference facts" 2 (Instance.fact_count l);
  check_bool "dom = adom" true
    (Constant.Set.equal (Instance.dom l) (Instance.adom l))

let test_map_constants () =
  let h x = if Constant.equal x (c "a") then c "q" else x in
  let i = Instance.map_constants h i0 in
  check_bool "mapped fact" true
    (Instance.mem i (Fact.make (Relation.make "R" 2) [ c "q"; c "b" ]));
  check_bool "old fact gone" false
    (Instance.mem i (Fact.make (Relation.make "P" 1) [ c "a" ]));
  check_int "same count (injective here)" 3 (Instance.fact_count i)

let test_with_dom () =
  Alcotest.check_raises "must contain adom"
    (Invalid_argument "Instance.with_dom: domain must contain the active domain")
    (fun () -> ignore (Instance.with_dom i0 (Constant.Set.singleton (c "a"))))

let test_disjoint_union () =
  let a = inst ~schema:s2 "R(a,b). P(a)." in
  let b = inst ~schema:s2 "R(b,q). P(b)." in
  let u, rename = Instance.disjoint_union a b in
  check_int "facts add up" 4 (Instance.fact_count u);
  check_int "domains add up"
    (Instance.dom_size a + Instance.dom_size b)
    (Instance.dom_size u);
  (* a's facts are untouched; b's facts appear renamed *)
  check_bool "a preserved" true (Instance.subset a u);
  check_bool "b image present" true
    (Instance.subset (Instance.map_constants rename b) u);
  check_bool "clash renamed" false (Constant.equal (rename (c "b")) (c "b"));
  check_bool "non-clash kept" true (Constant.equal (rename (c "q")) (c "q"))

let test_facts_of () =
  check_int "R facts" 2 (Fact.Set.cardinal (Instance.facts_of i0 (Relation.make "R" 2)));
  check_int "missing relation" 0
    (Fact.Set.cardinal (Instance.facts_of i0 (Relation.make "P" 2)))

(* [of_facts] is a bulk build; it must agree with folding [add_fact],
   including the [Invalid_argument] for the first fact outside the
   schema. *)
let prop_of_facts_is_fold =
  let wide = schema [ ("R", 2); ("P", 1); ("Q", 1) ] in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 12)
           (map2
              (fun r (x, y) ->
                let cs = [ c x; c y ] in
                if r < 3 then Fact.make (Relation.make "R" 2) cs
                else if r < 5 then Fact.make (Relation.make "P" 1) [ List.hd cs ]
                else Fact.make (Relation.make "Q" 1) [ List.hd cs ])
              (int_range 0 5)
              (pair (oneofl [ "a"; "b"; "c"; "d" ]) (oneofl [ "a"; "b"; "e" ]))))
        (list_size (int_range 0 3) (oneofl [ "a"; "x"; "y" ])))
  in
  let print (fs, dom) =
    String.concat " " (List.map Fact.to_string fs) ^ " | dom " ^ String.concat "," dom
  in
  QCheck.Test.make ~name:"Instance.of_facts = fold add_fact" ~count:300
    (QCheck.make ~print gen) (fun (fs, dom) ->
      let sch = if List.length fs mod 3 = 0 then wide else s2 in
      let dom = List.map c dom in
      let bulk () = Instance.of_facts ~dom sch fs in
      let fold () =
        List.fold_left Instance.add_dom
          (List.fold_left Instance.add_fact (Instance.empty sch) fs)
          dom
      in
      let run f =
        match f () with i -> Ok i | exception Invalid_argument m -> Error m
      in
      match (run bulk, run fold) with
      | Ok a, Ok b -> Instance.equal a b
      | Error m, Error m' -> String.equal m m'
      | _ -> false)

let suite =
  [ case "basics" test_basic;
    case "dom vs adom" test_dom_vs_adom;
    case "schema enforced" test_schema_enforced;
    case "⊆ vs ≤" test_subset_vs_induced;
    case "induced on full dom" test_induced_full_dom;
    case "union and intersection" test_union_intersection;
    case "difference (active)" test_difference_active;
    case "map constants" test_map_constants;
    case "with_dom validation" test_with_dom;
    case "disjoint union" test_disjoint_union;
    case "facts_of" test_facts_of;
    QCheck_alcotest.to_alcotest prop_of_facts_is_fold
  ]
