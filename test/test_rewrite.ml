open Tgd_syntax
open Tgd_core
open Helpers

(* caps large enough to make the small schemas exhaustive *)
let exhaustive_config =
  Rewrite.
    { default_config with
      caps =
        Candidates.
          { max_body_atoms = 10; max_head_atoms = 10; keep_tautologies = false }
    }

(* these tests run unbudgeted, so unwrap the Budget.outcome eagerly *)
module R = Rewrite
let g_to_l ?config sigma = Tgd_engine.Budget.value (R.g_to_l ?config sigma)
let fg_to_g ?config sigma = Tgd_engine.Budget.value (R.fg_to_g ?config sigma)

let to_frontier_guarded ?config sigma =
  Tgd_engine.Budget.value (R.to_frontier_guarded ?config sigma)

let to_full ?config sigma = Tgd_engine.Budget.value (R.to_full ?config sigma)
let is_rewritable = function Rewrite.Rewritable _ -> true | _ -> false

let definitive_no = function
  | Rewrite.Not_rewritable { complete; _ } -> complete
  | _ -> false

let test_class_bounds () =
  let n, m = Rewrite.class_bounds [ tgd "R(x,y), S(y,z) -> exists u. T(x,u)." ] in
  check_int "n" 3 n;
  check_int "m" 1 m;
  let n0, m0 = Rewrite.class_bounds [] in
  check_int "empty n" 0 n0;
  check_int "empty m" 0 m0

let test_g_to_l_separation () =
  (* Section 9.1: Σ_G = {R(x), P(x) → T(x)} has no linear rewriting *)
  let sigma_g, _ = Tgd_workload.Families.separation_linear_vs_guarded in
  let report = g_to_l ~config:exhaustive_config sigma_g in
  check_bool "not rewritable" true (definitive_no report.Rewrite.outcome)

let test_g_to_l_positive () =
  let sigma = Tgd_workload.Families.guarded_rewritable 1 in
  let report = g_to_l ~config:exhaustive_config sigma in
  match report.Rewrite.outcome with
  | Rewrite.Rewritable sigma' ->
    check_bool "all linear" true (Tgd_class.all_in_class Tgd_class.Linear sigma');
    (* Linearization Lemma (1) ⇒ (2): variable bounds preserved *)
    let n, m = Rewrite.class_bounds sigma in
    List.iter
      (fun t -> check_bool "within TGD_{n,m}" true (Tgd.in_class_nm ~n ~m t))
      sigma';
    (* semantic equivalence, certified two ways *)
    check_answer "Σ ⊨ Σ'" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.entails_set sigma sigma');
    check_answer "Σ' ⊨ Σ" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.entails_set sigma' sigma);
    check_bool "bounded models agree" true
      (Rewrite.verify_equivalence_bounded sigma sigma' ~dom_size:2 = None)
  | other -> Alcotest.failf "expected rewritable, got %a" Rewrite.pp_outcome other

let test_g_to_l_already_linear () =
  (* a linear input rewrites to (something equivalent to) itself *)
  let sigma = [ tgd "E(x,y) -> exists z. E(y,z)." ] in
  let report = g_to_l ~config:exhaustive_config sigma in
  match report.Rewrite.outcome with
  | Rewrite.Rewritable sigma' ->
    check_answer "equivalent" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.equivalent sigma sigma')
  | other -> Alcotest.failf "expected rewritable, got %a" Rewrite.pp_outcome other

let test_g_to_l_input_validation () =
  Alcotest.check_raises "guarded input required"
    (Invalid_argument "Rewrite.g_to_l: input must be a set of guarded tgds")
    (fun () ->
      ignore (g_to_l [ tgd "E(x,y), E(y,z) -> E(x,z)." ]))

let test_fg_to_g_separation () =
  let sigma_f, _ = Tgd_workload.Families.separation_guarded_vs_fg in
  let report = fg_to_g ~config:exhaustive_config sigma_f in
  check_bool "not rewritable" true (definitive_no report.Rewrite.outcome)

let test_fg_to_g_positive () =
  (* tight caps keep the binary-schema guarded space small; caps only
     threaten completeness of a NEGATIVE answer, not this positive one *)
  let config =
    Rewrite.
      { default_config with
        caps =
          Candidates.
            { max_body_atoms = 2; max_head_atoms = 1; keep_tautologies = false }
      }
  in
  let sigma = Tgd_workload.Families.fg_rewritable 1 in
  let report = fg_to_g ~config sigma in
  match report.Rewrite.outcome with
  | Rewrite.Rewritable sigma' ->
    check_bool "all guarded" true (Tgd_class.all_in_class Tgd_class.Guarded sigma');
    check_answer "equivalent" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.equivalent sigma sigma')
  | other -> Alcotest.failf "expected rewritable, got %a" Rewrite.pp_outcome other

let test_fg_to_g_validation () =
  Alcotest.check_raises "fg input required"
    (Invalid_argument "Rewrite.fg_to_g: input must be frontier-guarded tgds")
    (fun () ->
      ignore (fg_to_g [ tgd "E(x,y), E(y,z) -> E(x,z)." ]))

let test_minimization () =
  let sigma = Tgd_workload.Families.guarded_rewritable 1 in
  let mini = g_to_l ~config:exhaustive_config sigma in
  let maxi =
    g_to_l ~config:Rewrite.{ exhaustive_config with minimize = false } sigma
  in
  match mini.Rewrite.outcome, maxi.Rewrite.outcome with
  | Rewrite.Rewritable small, Rewrite.Rewritable large ->
    check_bool "minimized not larger" true (List.length small <= List.length large);
    check_answer "still equivalent" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.equivalent small large)
  | _ -> Alcotest.fail "both runs should be rewritable"

let test_report_counters () =
  let sigma = Tgd_workload.Families.guarded_rewritable 1 in
  let report = g_to_l ~config:exhaustive_config sigma in
  check_bool "enumerated some" true (report.Rewrite.candidates_enumerated > 0);
  check_bool "entailed ≤ enumerated" true
    (report.Rewrite.candidates_entailed <= report.Rewrite.candidates_enumerated);
  check_int "n from input" 2 report.Rewrite.n;
  check_int "m from input" 0 report.Rewrite.m

let test_verify_equivalence_bounded () =
  let a = [ tgd "E(x,y) -> E(y,x)." ] in
  let b = [ tgd "E(x,y) -> E(x,x)." ] in
  check_bool "distinguishing countermodel found" true
    (Rewrite.verify_equivalence_bounded a b ~dom_size:2 <> None);
  check_bool "self equivalent" true
    (Rewrite.verify_equivalence_bounded a a ~dom_size:2 = None)

let small_caps_config =
  Rewrite.
    { default_config with
      caps =
        Candidates.
          { max_body_atoms = 2; max_head_atoms = 1; keep_tautologies = false }
    }

let test_to_frontier_guarded () =
  (* an already frontier-guarded (but non-guarded) input is re-found in the
     candidate space *)
  let fg_input = [ tgd "E(x,y), F(y,z) -> G(x,y)." ] in
  let report = to_frontier_guarded ~config:small_caps_config fg_input in
  (match report.Rewrite.outcome with
  | Rewrite.Rewritable sigma' ->
    check_bool "all fg" true
      (Tgd_class.all_in_class Tgd_class.Frontier_guarded sigma');
    check_answer "equivalent" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.equivalent fg_input sigma')
  | other -> Alcotest.failf "expected rewritable, got %a" Rewrite.pp_outcome other);
  (* transitive closure has no fg rewriting among the capped candidates *)
  let report =
    to_frontier_guarded ~config:small_caps_config
      Tgd_workload.Families.transitive_closure
  in
  (match report.Rewrite.outcome with
  | Rewrite.Rewritable _ ->
    Alcotest.fail "TC must not be fg-rewritable within these caps"
  | Rewrite.Not_rewritable _ | Rewrite.Unknown _ -> ())

let test_to_full () =
  (* an existential tgd whose witness is forced by a companion full tgd *)
  let sigma = tgds "P(x) -> exists z. E(x,z).\nP(x) -> E(x,x)." in
  let report = to_full ~config:exhaustive_config sigma in
  (match report.Rewrite.outcome with
  | Rewrite.Rewritable sigma' ->
    check_bool "all full" true (Tgd_class.all_in_class Tgd_class.Full sigma');
    check_answer "equivalent" Tgd_chase.Entailment.Proved
      (Tgd_chase.Entailment.equivalent sigma sigma')
  | other -> Alcotest.failf "expected rewritable, got %a" Rewrite.pp_outcome other);
  (* a genuinely existential ontology is not full-expressible *)
  let succ = [ tgd "P(x) -> exists z. E(x,z)." ] in
  let report = to_full ~config:exhaustive_config succ in
  match report.Rewrite.outcome with
  | Rewrite.Not_rewritable { complete; _ } -> check_bool "definitive" true complete
  | other -> Alcotest.failf "expected not rewritable, got %a" Rewrite.pp_outcome other

let test_minimize () =
  let redundant =
    [ tgd "E(x,y) -> F(x,y)."; tgd "F(x,y) -> G(x,y)."; tgd "E(x,y) -> G(x,y)." ]
  in
  let minimized = Rewrite.minimize redundant in
  check_int "dropped the implied tgd" 2 (List.length minimized);
  check_answer "still equivalent" Tgd_chase.Entailment.Proved
    (Tgd_chase.Entailment.equivalent redundant minimized);
  (* idempotent on irredundant sets *)
  check_int "irredundant untouched" 2
    (List.length (Rewrite.minimize minimized))

let test_schema_of () =
  let sigma = [ tgd "R(x,y) -> exists z. S(x,z)." ] in
  let s = Rewrite.schema_of sigma in
  check_int "two relations" 2 (Schema.size s);
  check_bool "has S" true (Schema.find s "S" <> None)

(* ---- the prefilter: once per body relation set, and sound ---- *)

let rels atoms = Relation.Set.of_list (List.map Atom.rel atoms)

let gen_guarded_sigma : Tgd.t list QCheck.Gen.t =
 fun st ->
  let schema = Tgd_workload.Gen.random_schema st ~relations:3 ~max_arity:2 in
  Tgd_workload.Gen.random_sigma st schema Tgd_class.Guarded
    ~size:(1 + Random.State.int st 3)

(* Over the first 300 linear and the first 300 guarded candidates: the
   sweep's cached closure gives the per-candidate [Depgraph.close]
   verdict, and the naive chase proves no candidate it drops. *)
let prop_prefilter_sound =
  QCheck.Test.make
    ~name:"prefilter: cached closure = per-candidate closure, drops nothing entailed"
    ~count:40
    (QCheck.make
       ~print:(fun sigma -> String.concat " ;; " (List.map Tgd.to_string sigma))
       gen_guarded_sigma)
    (fun sigma ->
      let schema = R.schema_of sigma and n, m = R.class_bounds sigma in
      let caps =
        Candidates.{ max_body_atoms = 2; max_head_atoms = 1; keep_tautologies = false }
      in
      let g = Tgd_analysis.Depgraph.make sigma in
      let prefilter = R.prefilter sigma in
      let budget = Tgd_engine.Budget.limits ~rounds:8 ~facts:500 in
      List.for_all
        (fun space ->
          Seq.take 300 space
          |> Seq.for_all (fun c ->
                 let hit = prefilter c in
                 hit
                 = not
                     (Relation.Set.subset (rels (Tgd.head c))
                        (Tgd_analysis.Depgraph.close g (rels (Tgd.body c))))
                 && ((not hit)
                    || Tgd_chase.Entailment.entails ~naive:true ~memo:false ~budget
                         sigma c
                       <> Tgd_chase.Entailment.Proved)))
        [ Candidates.linear ~caps schema ~n ~m; Candidates.guarded ~caps schema ~n ~m ])

(* The benchmark's rewrite_layered sweep, unrenamed: how much of the
   space is enumerated, prefiltered and entailed, and the size of the
   rewriting, at jobs 1 and 2. *)
let test_layered_sweep_work () =
  let d = R.default_config in
  List.iter
    (fun jobs ->
      Tgd_chase.Entailment.clear_memos ();
      Tgd_chase.Chase.clear_memo ();
      let config =
        { d with
          R.caps = { d.R.caps with Candidates.max_head_atoms = 1 };
          jobs
        }
      in
      let r = g_to_l ~config (Tgd_workload.Families.layered ~copies:4 ~depth:3) in
      let at what = Printf.sprintf "jobs %d: %s" jobs what in
      check_int (at "enumerated") 3336 r.R.candidates_enumerated;
      check_int (at "prefiltered") 3024 r.R.candidates_skipped;
      check_int (at "entailed") 144 r.R.candidates_entailed;
      match r.R.outcome with
      | R.Rewritable sigma' -> check_int (at "rewriting") 36 (List.length sigma')
      | _ -> Alcotest.fail (at "the layered ontology did not rewrite"))
    [ 1; 2 ]

let suite =
  [ case "class bounds" test_class_bounds;
    case "G-to-L separation (§9.1)" test_g_to_l_separation;
    case "G-to-L positive" test_g_to_l_positive;
    case "G-to-L on linear input" test_g_to_l_already_linear;
    case "G-to-L validation" test_g_to_l_input_validation;
    case "FG-to-G separation (§9.1)" test_fg_to_g_separation;
    slow_case "FG-to-G positive" test_fg_to_g_positive;
    case "FG-to-G validation" test_fg_to_g_validation;
    case "minimization" test_minimization;
    case "report counters" test_report_counters;
    case "bounded equivalence check" test_verify_equivalence_bounded;
    case "rewrite into frontier-guarded" test_to_frontier_guarded;
    case "rewrite into full tgds" test_to_full;
    case "minimize" test_minimize;
    case "schema_of" test_schema_of;
    case "rewrite_layered sweep work counts" test_layered_sweep_work;
    QCheck_alcotest.to_alcotest prop_prefilter_sound
  ]
