open Tgd_syntax
open Tgd_instance
open Tgd_core
open Helpers

let s_rpt = schema [ ("R", 1); ("P", 1); ("T", 1) ]
let s_e = schema [ ("E", 2) ]

let embeddable = function
  | Locality.Embeddable -> true
  | Locality.No_witness _ -> false

(* ---- Section 9.1, first separation: Σ_G is not linear (1,0)-local ---- *)

let sigma_g, i_sep = Tgd_workload.Families.separation_linear_vs_guarded
let o_g = Ontology.axiomatic s_rpt sigma_g

let test_separation_linear_embeddable () =
  (* Σ_G is linearly (1,0)-locally embeddable in I = {R(c), P(c)} *)
  check_bool "linearly embeddable" true
    (embeddable (Locality.locally_embeddable Locality.Linear ~n:1 ~m:0 o_g i_sep));
  (* but I ⊭ Σ_G *)
  check_bool "I not member" false (Ontology.mem o_g i_sep)

let test_separation_not_plain_embeddable () =
  (* with the full (plain) notion the configuration K = {R(c),P(c)} itself
     is tested, and no member contains it while folding back: the plain
     embeddability fails — this is why Σ_G IS (2,0)-local as a TGD_{2,0}
     ontology *)
  check_bool "not plainly embeddable" false
    (embeddable (Locality.locally_embeddable Locality.Plain ~n:2 ~m:0 o_g i_sep))

let test_separation_verdict () =
  match Tgd_engine.Budget.value (Locality.check_local_on Locality.Linear ~n:1 ~m:0 o_g [ i_sep ]) with
  | Locality.Not_local witness ->
    check_bool "witness is I" true (Instance.equal_facts witness i_sep)
  | Locality.Local_on_tests -> Alcotest.fail "Σ_G must not be linear (1,0)-local"

(* ---- Section 9.1, second separation: Σ_F is not guarded (2,0)-local ---- *)

let sigma_f, i_sep_f = Tgd_workload.Families.separation_guarded_vs_fg
let o_f = Ontology.axiomatic s_rpt sigma_f

let test_separation_guarded () =
  check_bool "guardedly embeddable" true
    (embeddable (Locality.locally_embeddable Locality.Guarded ~n:2 ~m:0 o_f i_sep_f));
  check_bool "I not member" false (Ontology.mem o_f i_sep_f);
  match Tgd_engine.Budget.value (Locality.check_local_on Locality.Guarded ~n:2 ~m:0 o_f [ i_sep_f ]) with
  | Locality.Not_local _ -> ()
  | Locality.Local_on_tests -> Alcotest.fail "Σ_F must not be guarded (2,0)-local"

let test_fg_embeddability_of_sigma_f () =
  (* Σ_F is frontier-guarded, hence frontier-guarded (2,0)-local
     (Lemma 8.3): no counterexample among small instances *)
  check_bool "fr-guardedly NOT embeddable in the separating I" false
    (embeddable
       (Locality.locally_embeddable Locality.Frontier_guarded ~n:2 ~m:0 o_f i_sep_f))

(* ---- Lemma 3.6 as a bounded test: TGD_{n,m}-ontologies are (n,m)-local ---- *)

let test_lemma_3_6_bounded () =
  let cases =
    [ (Ontology.axiomatic s_e [ tgd "E(x,y) -> E(y,x)." ], 2, 0);
      (Ontology.axiomatic s_e [ tgd "E(x,y) -> exists z. E(y,z)." ], 2, 1);
      (o_g, 2, 0) ]
  in
  List.iter
    (fun (o, n, m) ->
      match Tgd_engine.Budget.value (Locality.check_local_up_to Locality.Plain ~n ~m o 2) with
      | Locality.Local_on_tests -> ()
      | Locality.Not_local i ->
        Alcotest.failf "Lemma 3.6 violated on %a" Instance.pp i)
    cases

(* ---- Lemmas 6.2/7.2: refined embeddability implies plain (same I) ---- *)

let test_embeddability_monotonicity () =
  (* plain embeddable ⇒ linearly/guardedly embeddable (the configurations
     of the refined notions are a subset) *)
  let o = Ontology.axiomatic s_e [ tgd "E(x,y) -> E(y,x)." ] in
  Enumerate.instances_up_to s_e 2
  |> Seq.iter (fun i ->
         if embeddable (Locality.locally_embeddable Locality.Plain ~n:2 ~m:0 o i)
         then begin
           check_bool "⇒ linear emb" true
             (embeddable (Locality.locally_embeddable Locality.Linear ~n:2 ~m:0 o i));
           check_bool "⇒ guarded emb" true
             (embeddable (Locality.locally_embeddable Locality.Guarded ~n:2 ~m:0 o i))
         end)

(* ---- Lemma 8.3 (bounded): FG-ontologies are fr-guarded (n,m)-local ---- *)

let test_lemma_8_3_bounded () =
  (* Σ_F is frontier-guarded, so no instance may be fr-guardedly embeddable
     without being a member (checked exhaustively on dom ≤ 2) *)
  match
    Tgd_engine.Budget.value
      (Locality.check_local_up_to Locality.Frontier_guarded ~n:2 ~m:0 o_f 2)
  with
  | Locality.Local_on_tests -> ()
  | Locality.Not_local i ->
    Alcotest.failf "Lemma 8.3 violated on %a" Instance.pp i

let test_fg_configurations () =
  let i = inst ~schema:s_e "E(a,b). E(b,c)." in
  let configs =
    List.of_seq (Locality.configurations Locality.Frontier_guarded ~n:2 i)
  in
  (* every configuration is F-guarded: empty, or some fact covers F *)
  List.iter
    (fun conf ->
      check_bool "F-guarded" true
        (Instance.is_empty conf.Locality.sub
        || Fact.Set.exists
             (fun f ->
               Constant.Set.subset conf.Locality.fixed (Fact.constants f))
             (Instance.facts conf.Locality.sub)))
    configs;
  (* F = ∅ is always present with the empty K *)
  check_bool "empty configuration present" true
    (List.exists
       (fun conf ->
         Constant.Set.is_empty conf.Locality.fixed
         && Instance.is_empty conf.Locality.sub)
       configs)

(* ---- configurations ---- *)

let test_configurations () =
  let i = inst ~schema:s_e "E(a,b). E(b,c)." in
  let plain =
    List.of_seq (Locality.configurations Locality.Plain ~n:2 i)
  in
  (* subsets of {a,b,c} of size ≤ 2 *)
  check_int "plain configs" 7 (List.length plain);
  let linear = List.of_seq (Locality.configurations Locality.Linear ~n:2 i) in
  (* empty + one per fact *)
  check_int "linear configs" 3 (List.length linear);
  let guarded = List.of_seq (Locality.configurations Locality.Guarded ~n:2 i) in
  check_int "guarded configs" 3 (List.length guarded);
  List.iter
    (fun conf ->
      check_bool "fixed = adom" true
        (Constant.Set.equal conf.Locality.fixed (Instance.adom conf.Locality.sub)))
    (plain @ linear)

let test_guarded_configs_are_induced () =
  (* guarded configurations carry all facts over the guard's constants *)
  let i = inst ~schema:s_e "E(a,b). E(b,a). E(b,c)." in
  Locality.configurations Locality.Guarded ~n:2 i
  |> Seq.iter (fun conf ->
         check_bool "induced" true
           (Instance.is_induced_subinstance conf.Locality.sub i))

let test_witness_ok () =
  let o = Ontology.axiomatic s_e [ tgd "E(x,y) -> E(y,x)." ] in
  let k = inst ~schema:s_e "E(a,b)." in
  let witness = Option.get (Ontology.chase_witness o k) in
  (* witness = {E(a,b), E(b,a)}; target with both edges accepts it *)
  check_bool "fold into symmetric target" true
    (Locality.witness_ok ~m:0 ~fixed:(Instance.adom k) ~witness
       ~target:(inst ~schema:s_e "E(a,b). E(b,a)."));
  check_bool "fold into bare edge fails" false
    (Locality.witness_ok ~m:0 ~fixed:(Instance.adom k) ~witness
       ~target:(inst ~schema:s_e "E(a,b)."))

(* ---- jobs independence ---- *)

(* Witness checks on pool workers search instance homomorphisms
   concurrently; each search must name its variables apart from every
   other's, or two constants can share a variable and every later check
   conflates them.  The verdicts, and the reported configuration, are the
   sequential ones at any [jobs]. *)
let test_jobs_independent () =
  let same a b =
    match (a, b) with
    | Locality.Embeddable, Locality.Embeddable -> true
    | Locality.No_witness x, Locality.No_witness y ->
      Constant.Set.equal x.Locality.fixed y.Locality.fixed
      && Instance.equal_facts x.Locality.sub y.Locality.sub
    | _ -> false
  in
  let sym = Ontology.axiomatic s_e [ tgd "E(x,y) -> E(y,x)." ] in
  let succ = Ontology.axiomatic s_e [ tgd "E(x,y) -> exists z. E(y,z)." ] in
  let fixtures =
    [ (o_g, Locality.Linear, 1, 0, i_sep);
      (o_g, Locality.Plain, 2, 0, i_sep);
      (o_f, Locality.Guarded, 2, 0, i_sep_f);
      (o_f, Locality.Frontier_guarded, 2, 0, i_sep_f) ]
    @ List.concat_map
        (fun i ->
          [ (sym, Locality.Plain, 2, 0, i); (sym, Locality.Linear, 2, 0, i);
            (sym, Locality.Guarded, 2, 0, i); (succ, Locality.Plain, 2, 1, i) ])
        (List.of_seq (Enumerate.instances_up_to s_e 2))
  in
  List.iter
    (fun (o, variant, n, m, i) ->
      let at jobs = Locality.locally_embeddable ~jobs variant ~n ~m o i in
      let one = at 1 and two = at 2 in
      if not (same one two) then
        Alcotest.failf "%s (%d,%d)-embeddability of %a differs at jobs 2"
          (Locality.variant_name variant) n m Instance.pp i)
    fixtures

let suite =
  [ case "§9.1: Σ_G linearly embeddable in I" test_separation_linear_embeddable;
    case "§9.1: Σ_G plainly not embeddable" test_separation_not_plain_embeddable;
    case "§9.1: Σ_G not linear (1,0)-local" test_separation_verdict;
    case "§9.1: Σ_F not guarded (2,0)-local" test_separation_guarded;
    case "Σ_F fr-guarded embeddability" test_fg_embeddability_of_sigma_f;
    case "Lemma 3.6 (bounded)" test_lemma_3_6_bounded;
    case "Lemma 8.3 (bounded)" test_lemma_8_3_bounded;
    case "fr-guarded configurations" test_fg_configurations;
    case "refinement monotonicity" test_embeddability_monotonicity;
    case "configurations" test_configurations;
    case "guarded configs induced" test_guarded_configs_are_induced;
    case "witness_ok" test_witness_ok;
    case "embeddability is independent of jobs" test_jobs_independent
  ]
