(* Benchmark & reproduction harness.

   The paper (PODS'21) is a theory paper: it has no measurement tables or
   figures.  Its reproducible artifacts are (a) the theorems/examples, which
   this harness re-verifies and prints as tables E1–E10 (see DESIGN.md and
   EXPERIMENTS.md), and (b) the complexity analyses of Section 9, whose
   *shape* (candidate-space growth, runtime scaling) E6/E7/E8 print.  E12,
   E14, E15 and E16 time the engine's parallel screening, static analysis,
   crash recovery and serving, each writing a BENCH_*.json file.

   Run with:  dune exec bench/main.exe
   or, for just the JSON-emitting rows:
              dune exec bench/main.exe -- [parallel] [analysis] [recover] [serve] [quick] *)

open Tgd_syntax
open Tgd_instance
open Tgd_core
open Tgd_workload
module Budget = Tgd_engine.Budget

let section title = Fmt.pr "@.=== %s ===@." title

let show_verdict : 'a. 'a Properties.verdict -> string = function
  | Properties.Holds -> "holds"
  | Properties.Fails _ -> "FAILS"
  | Properties.Inconclusive why -> "inconclusive: " ^ why

let row fmt = Fmt.pr fmt

(* ------------------------------------------------------------------ *)
(* E1 — Lemmas 3.2 / 3.4 / 3.6: necessary conditions, verified         *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Lemmas 3.2/3.4/3.6 — every TGD-ontology is critical, ⊗-closed, local";
  row "%-28s %-12s %-12s %-14s@." "Σ (family)" "critical≤3" "⊗-closed≤2" "(n,m)-local≤2";
  let families =
    [ ("symmetric", Tgd_parse.Parse.tgds_exn "E(x,y) -> E(y,x).", 2, 0);
      ("succ (existential)", Tgd_parse.Parse.tgds_exn "E(x,y) -> exists z. E(y,z).", 2, 1);
      ("separation Σ_G", fst Families.separation_linear_vs_guarded, 2, 0);
      ("guarded_rewritable 1", Families.guarded_rewritable 1, 2, 0) ]
  in
  List.iter
    (fun (name, sigma, n, m) ->
      let o = Ontology.axiomatic (Rewrite.schema_of sigma) sigma in
      let local =
        match Budget.value (Locality.check_local_up_to Locality.Plain ~n ~m o 2) with
        | Locality.Local_on_tests -> "holds"
        | Locality.Not_local _ -> "FAILS"
      in
      row "%-28s %-12s %-12s %-14s@." name
        (show_verdict (Properties.critical_up_to o 3))
        (show_verdict (Properties.closed_under_products o ~dom_size:2))
        local)
    families

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 4.1 synthesis                                           *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  Theorem 4.1 — synthesis of Σ^∃ from membership oracles";
  let s_e = Schema.of_pairs [ ("E", 2) ] in
  row "%-34s %-8s %-8s %-10s@." "oracle" "(n,m)" "|Σ^∃|" "verified≤2";
  let cases =
    [ ("Mod(E(x,y)→E(y,x))", s_e,
       (fun i -> Satisfaction.tgds i (Tgd_parse.Parse.tgds_exn "E(x,y) -> E(y,x).")), 2, 0);
      ("Mod(E(x,y)→∃z E(y,z))", s_e,
       (fun i -> Satisfaction.tgds i (Tgd_parse.Parse.tgds_exn "E(x,y) -> exists z. E(y,z).")), 2, 1);
      ("¬tgd: |facts| ≤ 2", s_e, (fun i -> Instance.fact_count i <= 2), 2, 1) ]
  in
  List.iter
    (fun (name, s, oracle, n, m) ->
      let o = Ontology.oracle ~name s oracle in
      let sigma = Budget.value (Characterize.synthesize o ~n ~m) in
      let verified =
        match Characterize.verify_axiomatization o sigma ~dom_size:2 with
        | None -> "yes"
        | Some _ -> "NO (not a TGD-ontology)"
      in
      row "%-34s (%d,%d)    %-8d %-10s@." name n m (List.length sigma) verified)
    cases

(* ------------------------------------------------------------------ *)
(* E3 — Example 5.2 and Theorem 5.6                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Example 5.2 — Makowsky–Vardi Lemma 7 refuted; Theorem 5.6 suite";
  let sigma, i = Families.example_5_2 in
  let a = Constant.named "a" and c = Constant.named "c" in
  row "I ⊨ σ:                       %b (paper: true)@." (Satisfaction.tgds i sigma);
  row "oblivious ext J ⊨ σ:         %b (paper: false — Lemma 7 of [14] fails)@."
    (Satisfaction.tgds (Duplicating.oblivious i a c) sigma);
  row "non-oblivious ext J' ⊨ σ:    %b (paper: true — Definition 5.3)@."
    (Satisfaction.tgds (Duplicating.non_oblivious i a c) sigma);
  let o = Ontology.axiomatic (Rewrite.schema_of sigma) sigma in
  row "Theorem 5.6 (1)⇒(2) suite:  1-critical %s, dom-indep %s, ∩-closed %s, non-obl-dupext %s@."
    (show_verdict (Properties.critical_up_to o 1))
    (show_verdict (Properties.domain_independent o ~dom_size:2))
    (show_verdict (Properties.closed_under_intersections o ~dom_size:2))
    (show_verdict (Properties.closed_under_non_oblivious_dupext o ~dom_size:2))

(* ------------------------------------------------------------------ *)
(* E4/E5 — Section 9.1 separations                                      *)
(* ------------------------------------------------------------------ *)

let separation_row name variant ~n ~m (sigma, i) =
  let o = Ontology.axiomatic (Rewrite.schema_of sigma) sigma in
  let emb =
    match Locality.locally_embeddable variant ~n ~m o i with
    | Locality.Embeddable -> "yes"
    | Locality.No_witness _ -> "no"
  in
  let verdict =
    match Budget.value (Locality.check_local_on variant ~n ~m o [ i ]) with
    | Locality.Not_local _ -> "NOT local (separation confirmed)"
    | Locality.Local_on_tests -> "no counterexample"
  in
  row "%-10s %-26s emb=%-4s I⊨Σ=%-6b %s@." name
    (Printf.sprintf "%s (%d,%d)-locality" (Locality.variant_name variant) n m)
    emb (Satisfaction.tgds i sigma) verdict

let e4_e5 () =
  section "E4/E5  Section 9.1 — semantic separations via refined locality";
  separation_row "E4 Σ_G" Locality.Linear ~n:1 ~m:0 Families.separation_linear_vs_guarded;
  separation_row "E5 Σ_F" Locality.Guarded ~n:2 ~m:0 Families.separation_guarded_vs_fg

(* ------------------------------------------------------------------ *)
(* E6/E7 — Algorithms 1 and 2                                           *)
(* ------------------------------------------------------------------ *)

let rewrite_config body head =
  Rewrite.
    { default_config with
      caps = Candidates.{ max_body_atoms = body; max_head_atoms = head; keep_tautologies = false }
    }

(* The rewriting procedures grew a [?resume] checkpoint parameter; benches
   never resume, so eta-expand them to the shape the tables expect. *)
let g_to_l ?config sigma = Rewrite.g_to_l ?config sigma
let fg_to_g ?config sigma = Rewrite.fg_to_g ?config sigma

(* Wall clock, not [Sys.time]: CPU time would add worker-domain time up and
   hide any parallel speedup. *)
let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let chain_db k edges =
  let e0 = Relation.make "E0" 2 in
  Tgd_instance.Instance.of_facts (Families.chain_schema k)
    (List.init edges (fun i ->
         Fact.make e0
           [ Constant.named (Printf.sprintf "c%d" i);
             Constant.named (Printf.sprintf "c%d" (i + 1))
           ]))

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rewrite_table name algo inputs =
  row "%-26s %-6s %-10s %-10s %-28s %-8s@." name "k" "enum" "entailed" "outcome" "time(s)";
  List.iter
    (fun (label, k, sigma, config) ->
      let report, dt =
        time_it (fun () -> Budget.value (algo ?config:(Some config) sigma))
      in
      let outcome =
        match report.Rewrite.outcome with
        | Rewrite.Rewritable s -> Printf.sprintf "rewritable (%d tgds)" (List.length s)
        | Rewrite.Not_rewritable { complete; _ } ->
          if complete then "not rewritable (definitive)" else "not rewritable (capped)"
        | Rewrite.Unknown _ -> "unknown"
      in
      row "%-26s %-6d %-10d %-10d %-28s %.3f@." label k
        report.Rewrite.candidates_enumerated report.Rewrite.candidates_entailed
        outcome dt)
    inputs

let e6 () =
  section "E6  Theorem 9.1 / Algorithm 1 — Rewrite(GTGD, LTGD)";
  rewrite_table "G-to-L" g_to_l
    (List.concat_map
       (fun k ->
         [ (Printf.sprintf "rewritable(%d)" k, k, Families.guarded_rewritable k,
            rewrite_config 2 1);
           (Printf.sprintf "unrewritable(%d)" k, k, Families.guarded_unrewritable k,
            rewrite_config 8 8) ])
       [ 1; 2 ])

let e7 () =
  section "E7  Theorem 9.2 / Algorithm 2 — Rewrite(FGTGD, GTGD)";
  rewrite_table "FG-to-G" fg_to_g
    [ ("rewritable(1)", 1, Families.fg_rewritable 1, rewrite_config 2 1);
      ("unrewritable(1)", 1, Families.fg_unrewritable 1, rewrite_config 8 8);
      (* k = 2 doubles the schema; a definitive answer would need an
         uncapped 10^6-candidate sweep, so this row measures the capped
         scaling behaviour instead *)
      ("unrewritable(2)", 2, Families.fg_unrewritable 2, rewrite_config 2 1) ]

let e6_scaling () =
  section "E6b  Algorithm 1 scaling — wall time vs. ontology size and arity";
  row "%-30s %-8s %-10s %-12s@." "family" "k" "enum" "time(s)";
  List.iter
    (fun (name, sigma) ->
      let report, dt =
        time_it (fun () ->
            Budget.value (Rewrite.g_to_l ~config:(rewrite_config 2 1) sigma))
      in
      ignore report.Rewrite.outcome;
      row "%-30s %-8d %-10d %-12.3f@." name (List.length sigma / 2)
        report.Rewrite.candidates_enumerated dt)
    (List.map
       (fun k -> (Printf.sprintf "guarded_rewritable(%d)" k, Families.guarded_rewritable k))
       [ 1; 2; 3; 4 ]
    @ List.map
        (fun k ->
          (Printf.sprintf "guarded_rewritable_wide(%d)" k,
           Families.guarded_rewritable_wide k))
        [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* E8 — Section 9.2 counting bounds vs. measured enumeration            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Section 9.2 — candidate-space bounds vs. measured (canonical) enumeration";
  row "%-26s %-8s %-14s %-22s %-10s@." "schema" "(n,m)" "enumerated" "paper bound" "ratio";
  let caps = Candidates.{ max_body_atoms = 10; max_head_atoms = 10; keep_tautologies = true } in
  let cases =
    [ (Schema.of_pairs [ ("R", 1) ], 1, 0); (Schema.of_pairs [ ("R", 1) ], 1, 1);
      (Schema.of_pairs [ ("R", 1); ("P", 1); ("T", 1) ], 1, 0);
      (Schema.of_pairs [ ("R", 1); ("P", 1); ("T", 1) ], 1, 1);
      (Schema.of_pairs [ ("E", 2) ], 1, 1); (Schema.of_pairs [ ("E", 2) ], 2, 0);
      (Schema.of_pairs [ ("E", 2) ], 2, 1) ]
  in
  List.iter
    (fun (s, n, m) ->
      let enumerated =
        Candidates.count
          (Seq.filter (fun t -> Tgd.body t <> []) (Candidates.linear ~caps s ~n ~m))
      in
      let bound = Counting.linear_candidates_bound s ~n ~m in
      let ratio =
        match Bigint.to_int_opt bound with
        | Some b when b > 0 -> Printf.sprintf "%.4f" (float_of_int enumerated /. float_of_int b)
        | _ -> "≈0"
      in
      row "%-26s (%d,%d)    %-14d %-22s %-10s@." (Schema.to_string s) n m enumerated
        (Bigint.to_string bound) ratio)
    cases;
  row "@.Double-exponential growth in ar(S) (GTGD bound, |S|=1, n=3, m=1):@.";
  List.iter
    (fun ar ->
      let s = Schema.of_pairs [ ("R", ar) ] in
      row "  ar=%d: %d decimal digits@." ar
        (Bigint.digits (Counting.guarded_candidates_bound s ~n:3 ~m:1)))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E9 — Appendix F reduction                                            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Appendix F — hardness reduction, both polarities";
  let run name sigma_src =
    let sigma = Tgd_parse.Parse.tgds_exn sigma_src in
    let q = Option.get (Schema.find (Rewrite.schema_of sigma) "Q") in
    let art = Reduction.g_to_l_hardness sigma ~query:q in
    let equal =
      Tgd_chase.Entailment.equivalent art.Reduction.sigma' art.Reduction.witness_rewriting
    in
    row "%-34s |Σ'| = %-4d Σ' ≡ Σ_L: %-12s@." name
      (List.length art.Reduction.sigma')
      (Tgd_chase.Entailment.answer_to_string equal)
  in
  run "Σ ⊨ ∃Q (expect equivalent)" "-> exists z. A(z).\nA(x) -> B(x).\nB(x) -> Q(x).";
  run "Σ ⊭ ∃Q (expect disproved)" "A(x) -> B(x).\nQ(x) -> Q(x)."

(* ------------------------------------------------------------------ *)
(* E10 — Linearization/Guardedization Lemmas: variable-count bounds     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  Lemmas 6.3/7.3 — rewritings stay within TGD_{n,m}";
  let check name algo sigma config =
    let n, m = Rewrite.class_bounds sigma in
    match (Budget.value (algo ?config:(Some config) sigma)).Rewrite.outcome with
    | Rewrite.Rewritable sigma' ->
      let ok = List.for_all (Tgd.in_class_nm ~n ~m) sigma' in
      row "%-26s input (n,m)=(%d,%d): output within bounds: %b@." name n m ok
    | _ -> row "%-26s not rewritable — vacuous@." name
  in
  check "G-to-L guarded_rewritable" g_to_l (Families.guarded_rewritable 1)
    (rewrite_config 2 1);
  check "FG-to-G fg_rewritable" fg_to_g (Families.fg_rewritable 1)
    (rewrite_config 2 1)

(* ------------------------------------------------------------------ *)
(* E12 — parallel candidate screening (BENCH_parallel.json)             *)
(* ------------------------------------------------------------------ *)

let e12 ~reps ~quick () =
  section "E12  Section 9 rewriting — candidate screening over worker domains";
  let cores = Domain.recommended_domain_count () in
  (* the full honesty ladder: rows whose jobs exceed the machine's cores are
     reported as skipped, never timed — a 1-core box oversubscribing 4
     domains would "measure" scheduler noise and call it a speedup curve *)
  let jobs_list = [ 1; 2; 4; 8 ] in
  row "(cores available: %d; times: median of %d cold repetitions; jobs \
       beyond the core count are skipped, not timed)@."
    cores reps;
  row "%-28s %5s %10s %8s %-18s %9s@." "workload" "jobs" "time(s)" "speedup"
    "outcome" "identical";
  let entries = Buffer.create 1024 in
  let first_entry = ref true in
  let outcome_sig (r : Rewrite.report) =
    match r.Rewrite.outcome with
    | Rewrite.Rewritable s -> Printf.sprintf "rewritable(%d)" (List.length s)
    | Rewrite.Not_rewritable _ -> "not-rewritable"
    | Rewrite.Unknown _ -> "unknown"
  in
  let workload name algo sigma config =
    let run jobs =
      let runs =
        List.init reps (fun _ ->
            (* cold every repetition: the curve measures screening work,
               not cache replays *)
            Tgd_chase.Entailment.clear_memos ();
            Tgd_chase.Chase.clear_memo ();
            time_it (fun () ->
                Budget.value
                  (algo ?config:(Some Rewrite.{ config with jobs }) sigma)))
      in
      (fst (List.hd runs), median (List.map snd runs))
    in
    (* jobs = 1 always runs — it is the baseline every speedup divides by *)
    let base_r, base_t = run 1 in
    let job_entries =
      List.map
        (fun jobs ->
          if jobs > 1 && cores < jobs then begin
            row "%-28s %5d %10s %8s %-18s@." name jobs "-" "-"
              (Printf.sprintf "skipped (%d cores)" cores);
            Printf.sprintf
              "      {\"jobs\": %d, \"cores\": %d, \
               \"skipped_insufficient_cores\": true}"
              jobs cores
          end
          else begin
            let (r : Rewrite.report), t =
              if jobs = 1 then (base_r, base_t) else run jobs
            in
            let identical =
              outcome_sig r = outcome_sig base_r
              && r.Rewrite.candidates_enumerated
                 = base_r.Rewrite.candidates_enumerated
              && r.Rewrite.candidates_entailed
                 = base_r.Rewrite.candidates_entailed
            in
            let speedup = if t > 0. then base_t /. t else 1. in
            row "%-28s %5d %10.4f %7.2fx %-18s %9b@." name jobs t speedup
              (outcome_sig r) identical;
            Printf.sprintf
              "      {\"jobs\": %d, \"cores\": %d, \"time_s\": %.6f, \
               \"speedup\": %.3f, \"outcome\": \"%s\", \
               \"candidates_enumerated\": %d, \"candidates_entailed\": %d, \
               \"identical\": %b}"
              jobs cores t speedup (outcome_sig r)
              r.Rewrite.candidates_enumerated r.Rewrite.candidates_entailed
              identical
          end)
        jobs_list
    in
    if not !first_entry then Buffer.add_string entries ",\n";
    first_entry := false;
    Buffer.add_string entries
      (Printf.sprintf "    {\"name\": \"%s\", \"runs\": [\n%s\n    ]}" name
         (String.concat ",\n" job_entries))
  in
  workload "g2l rewritable(2)" g_to_l (Families.guarded_rewritable 2)
    (rewrite_config 2 1);
  workload "g2l rewritable_wide(2)" g_to_l
    (Families.guarded_rewritable_wide 2) (rewrite_config 2 1);
  workload "g2l unrewritable(1) [9.1]" g_to_l
    (Families.guarded_unrewritable 1) (rewrite_config 8 8);
  workload "fg2g unrewritable(1) [9.1]" fg_to_g
    (Families.fg_unrewritable 1) (rewrite_config 8 8);
  (* the scalable rows: hundreds of rules, candidate spaces in the 10⁴–10⁵
     range — enough per-sweep work for chunked dispatch to amortise.
     [minimize = false] keeps the row a pure screening measurement (greedy
     minimisation is sequential and would dilute the curve). *)
  let layered_copies, layered_depth = if quick then (4, 2) else (6, 2) in
  workload
    (Printf.sprintf "g2l layered(%dx%d)" layered_copies layered_depth)
    g_to_l
    (Families.layered ~copies:layered_copies ~depth:layered_depth)
    { (rewrite_config 2 1) with minimize = false };
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"parallel_screening\",\n  \"cores\": %d,\n\
    \  \"repetitions\": %d,\n  \"entries\": [\n%s\n  ]\n}\n"
    cores reps (Buffer.contents entries);
  close_out oc;
  row "@.BENCH_parallel.json written@."

(* ------------------------------------------------------------------ *)
(* E14 — static analysis: candidate prefiltering, promotion, overhead    *)
(*       (BENCH_analysis.json)                                           *)
(* ------------------------------------------------------------------ *)

let e14 ~reps () =
  section "E14  static analysis: candidate-space reduction on rewriting";
  row "(times: median of %d cold repetitions)@." reps;
  row "%-28s %-8s %10s %10s %10s %10s %10s@." "workload" "analyze" "enum"
    "screened" "skipped" "entailed" "time(s)";
  let entries = Buffer.create 1024 in
  let first = ref true in
  let emit_entry str =
    if not !first then Buffer.add_string entries ",\n";
    first := false;
    Buffer.add_string entries str
  in
  let rewrite_case name algo sigma config =
    let run_side analyze =
      let runs =
        List.init reps (fun _ ->
            Tgd_chase.Entailment.clear_memos ();
            Tgd_chase.Chase.clear_memo ();
            time_it (fun () ->
                Budget.value
                  (algo ?config:(Some Rewrite.{ config with analyze }) sigma)))
      in
      (fst (List.hd runs), median (List.map snd runs))
    in
    let off, t_off = run_side false in
    let on, t_on = run_side true in
    let line (r : Rewrite.report) analyze t =
      row "%-28s %-8b %10d %10d %10d %10d %10.4f@." name analyze
        r.Rewrite.candidates_enumerated
        (r.Rewrite.candidates_enumerated - r.Rewrite.candidates_skipped)
        r.Rewrite.candidates_skipped r.Rewrite.candidates_entailed t
    in
    line off false t_off;
    line on true t_on;
    (* the prefilter must never change the verdict, only the work *)
    assert (
      match (off.Rewrite.outcome, on.Rewrite.outcome) with
      | Rewrite.Rewritable a, Rewrite.Rewritable b ->
        List.length a = List.length b
      | Rewrite.Not_rewritable _, Rewrite.Not_rewritable _ -> true
      | _ -> false);
    emit_entry
      (Printf.sprintf
         "    {\"kind\": \"rewrite\", \"name\": \"%s\", \
          \"enumerated\": %d, \"skipped_off\": %d, \"skipped_on\": %d, \
          \"chased_off\": %d, \"chased_on\": %d, \
          \"time_off_s\": %.6f, \"time_on_s\": %.6f}"
         name off.Rewrite.candidates_enumerated
         off.Rewrite.candidates_skipped on.Rewrite.candidates_skipped
         (off.Rewrite.candidates_enumerated - off.Rewrite.candidates_skipped)
         (on.Rewrite.candidates_enumerated - on.Rewrite.candidates_skipped)
         t_off t_on)
  in
  rewrite_case "g2l unrewritable(1) [9.1]" g_to_l
    (Families.guarded_unrewritable 1) (rewrite_config 8 8);
  rewrite_case "g2l rewritable(2)" g_to_l (Families.guarded_rewritable 2)
    (rewrite_config 2 1);
  rewrite_case "fg2g unrewritable(1) [9.1]" fg_to_g
    (Families.fg_unrewritable 1) (rewrite_config 8 8);
  rewrite_case "fg2g rewritable(1)" fg_to_g (Families.fg_rewritable 1)
    (rewrite_config 2 1);

  section "E14  certificate promotion: chase rounds recovered";
  row "%-28s %-10s %-24s %8s@." "workload" "analyze" "outcome" "rounds";
  let promo_entries = Buffer.create 1024 in
  let first_p = ref true in
  let promo_case name sigma db cap =
    let budget = Budget.limits ~rounds:cap ~facts:1_000_000 in
    let run analyze =
      Tgd_chase.Chase.clear_memo ();
      Tgd_chase.Chase.restricted ~budget ~analyze sigma db
    in
    let off = run false in
    let on = run true in
    let show (r : Tgd_chase.Chase.result) analyze =
      row "%-28s %-10b %-24s %8d@." name analyze
        (match r.Tgd_chase.Chase.outcome with
        | Tgd_chase.Chase.Terminated -> "model"
        | Tgd_chase.Chase.Truncated e ->
          Fmt.str "truncated (%a)" Budget.pp_exhaustion e)
        r.Tgd_chase.Chase.rounds
    in
    show off false;
    show on true;
    if not !first_p then Buffer.add_string promo_entries ",\n";
    first_p := false;
    Buffer.add_string promo_entries
      (Printf.sprintf
         "    {\"name\": \"%s\", \"round_cap\": %d, \
          \"model_off\": %b, \"model_on\": %b, \
          \"rounds_off\": %d, \"rounds_on\": %d}"
         name cap
         (Tgd_chase.Chase.is_model off)
         (Tgd_chase.Chase.is_model on)
         off.Tgd_chase.Chase.rounds on.Tgd_chase.Chase.rounds)
  in
  promo_case "exist_chain(10), cap 2" (Families.existential_chain 10)
    (chain_db 10 4) 2;
  promo_case "dl_lite(6), cap 2" (Families.dl_lite_roles 6)
    (let sigma = Families.dl_lite_roles 6 in
     let schema = Rewrite.schema_of sigma in
     Tgd_instance.Instance.of_facts schema
       [ Fact.make (Option.get (Schema.find schema "A0"))
           [ Constant.named "a" ] ])
    2;

  section "E14  analysis overhead: ~analyze:true vs false, same workload";
  row "%-28s %12s %12s %9s@." "workload" "off(s)" "on(s)" "overhead";
  let ov_entries = Buffer.create 1024 in
  let first_o = ref true in
  (* the front-end cost an engine run actually pays: a memoized certificate
     check (and, for rewriting, the relation-level prefilter).  Workloads
     where no promotion fires, so both sides do the same chase work. *)
  let overhead_case name work =
    let side analyze =
      List.init reps (fun _ ->
          Tgd_chase.Entailment.clear_memos ();
          Tgd_chase.Chase.clear_memo ();
          snd (time_it (fun () -> work ~analyze)))
      |> median
    in
    let t_off = side false in
    let t_on = side true in
    let pct = if t_off > 0. then 100. *. (t_on -. t_off) /. t_off else 0. in
    row "%-28s %12.4f %12.4f %8.2f%%@." name t_off t_on pct;
    if not !first_o then Buffer.add_string ov_entries ",\n";
    first_o := false;
    Buffer.add_string ov_entries
      (Printf.sprintf
         "    {\"name\": \"%s\", \"off_s\": %.6f, \
          \"on_s\": %.6f, \"overhead_pct\": %.3f}"
         name t_off t_on pct)
  in
  overhead_case "chase tc/clique(7)" (fun ~analyze ->
      ignore
        (Tgd_chase.Chase.restricted ~analyze Families.transitive_closure
           (Families.clique 7)));
  overhead_case "chase exist_chain(10)" (fun ~analyze ->
      ignore
        (Tgd_chase.Chase.restricted ~analyze
           (Families.existential_chain 10) (chain_db 10 4)));
  overhead_case "g2l rewritable(2)" (fun ~analyze ->
      ignore
        (Budget.value
           (g_to_l
              ?config:(Some Rewrite.{ (rewrite_config 2 1) with analyze })
              (Families.guarded_rewritable 2))));
  overhead_case "fg2g unrewritable(1) [9.1]" (fun ~analyze ->
      ignore
        (Budget.value
           (fg_to_g
              ?config:(Some Rewrite.{ (rewrite_config 8 8) with analyze })
              (Families.fg_unrewritable 1))));

  section "E14  termination lattice: certified sets beyond the WA/JA baseline";
  let module Lattice = Tgd_analysis.Lattice in
  let module Termination = Tgd_analysis.Termination in
  let module Cert = Tgd_analysis.Cert in
  let module Certcheck = Tgd_analysis.Certcheck in
  (* tight caps make the whole-set critical chase exhaust while each
     stratum still certifies — the stratified tier's reason to exist *)
  let strat_limits = { Lattice.default_limits with Lattice.facts = 6 } in
  let parse_fixture path =
    if Sys.file_exists path then
      match Tgd_parse.Parse.tgds (read_whole_file path) with
      | Ok sigma when sigma <> [] -> Some sigma
      | Ok _ | Error _ -> None
    else None
  in
  let named =
    [ ("tc (full)", Families.transitive_closure, None, true);
      ("exist_chain(6)", Families.existential_chain 6, None, true);
      ( "ja_swap",
        Tgd_parse.Parse.tgds_exn "A(x,y), A(y,x) -> exists z. A(x,z).",
        None,
        true );
      ( "msa_wins",
        Tgd_parse.Parse.tgds_exn
          "S(x) -> exists z. T(x,z). T(x,y) -> T(y,x). T(y,y) -> S(y).",
        None,
        true );
      ( "strat_pair (tight budget)",
        Tgd_parse.Parse.tgds_exn
          "S1(x) -> exists z. T1(x,z). T1(x,y) -> T1(y,x). T1(y,y) -> S1(y). \
           S2(x) -> exists z. T2(x,z). T2(x,y) -> T2(y,x). T2(y,y) -> S2(y).",
        Some strat_limits,
        true );
      ( "divergent",
        Tgd_parse.Parse.tgds_exn "E(x,y) -> exists z. E(y,z).",
        None,
        false )
    ]
    @ List.filter_map
        (fun path ->
          Option.map
            (fun sigma -> (Filename.basename path, sigma, None, true))
            (parse_fixture path))
        [ "data/gen_layered_6x2.dlp";
          "data/gen_layered_16x4.dlp";
          "data/gen_layered_exist_8x3.dlp"
        ]
  in
  row "%-28s %-10s %-26s %-8s %10s@." "fixture" "baseline" "lattice notion"
    "checker" "time(s)";
  let lat_entries = Buffer.create 1024 in
  let first_l = ref true in
  let n_baseline = ref 0
  and n_lattice = ref 0
  and n_lattice_only = ref 0
  and checker_fail = ref 0
  and mis_baseline = ref 0
  and mis_lattice = ref 0 in
  List.iter
    (fun (name, sigma, limits, terminating) ->
      let baseline = Termination.certificate sigma <> None in
      let cls, t =
        time_it (fun () -> Lattice.classify ?limits sigma)
      in
      let notion =
        match cls with
        | Some (n, _) -> Termination.cert_name n
        | None -> "none"
      in
      let checker =
        match cls with
        | None -> "n/a"
        | Some (_, cert) -> (
          match Certcheck.verify sigma (Cert.to_string sigma cert) with
          | Ok _ -> "pass"
          | Error _ ->
            incr checker_fail;
            "FAIL")
      in
      let certified = cls <> None in
      if baseline then incr n_baseline;
      if certified then incr n_lattice;
      if certified && not baseline then incr n_lattice_only;
      (* admission misclassification: a terminating set labeled Expensive
         (or a diverging one labeled Moderate) sends the request down the
         wrong path *)
      if terminating <> baseline then incr mis_baseline;
      if terminating <> certified then incr mis_lattice;
      row "%-28s %-10b %-26s %-8s %10.4f@." name baseline notion checker t;
      if not !first_l then Buffer.add_string lat_entries ",\n";
      first_l := false;
      Buffer.add_string lat_entries
        (Printf.sprintf
           "    {\"name\": \"%s\", \"terminating\": %b, \
            \"baseline_certified\": %b, \"lattice_certified\": %b, \
            \"notion\": \"%s\", \"checker_pass\": %b, \"time_s\": %.6f}"
           name terminating baseline certified notion
           (checker <> "FAIL") t))
    named;
  row "certified: baseline %d, lattice %d (lattice-only %d); admission \
       misclassified: baseline %d, lattice %d@."
    !n_baseline !n_lattice !n_lattice_only !mis_baseline !mis_lattice;

  let oc = open_out "BENCH_analysis.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"static_analysis\",\n  \"repetitions\": %d,\n\
    \  \"overhead_target_pct\": 5.0,\n  \"rewrite\": [\n%s\n  ],\n\
    \  \"promotion\": [\n%s\n  ],\n  \"overhead\": [\n%s\n  ],\n\
    \  \"lattice\": [\n%s\n  ],\n\
    \  \"lattice_summary\": {\"baseline_certified\": %d, \
     \"lattice_certified\": %d, \"lattice_only\": %d, \
     \"checker_failures\": %d, \"misclassified_baseline\": %d, \
     \"misclassified_lattice\": %d}\n}\n"
    reps
    (Buffer.contents entries)
    (Buffer.contents promo_entries)
    (Buffer.contents ov_entries)
    (Buffer.contents lat_entries)
    !n_baseline !n_lattice !n_lattice_only !checker_fail !mis_baseline
    !mis_lattice;
  close_out oc;
  row "@.BENCH_analysis.json written@."

(* ------------------------------------------------------------------ *)
(* E15 — crash recovery: checkpoint write overhead, resume-vs-cold,     *)
(*       request completion under injected faults (BENCH_recover.json)  *)
(* ------------------------------------------------------------------ *)

let e15 ~reps () =
  let module Delta_log = Tgd_engine.Delta_log in
  let module Chaos = Tgd_engine.Chaos in
  let module Stats = Tgd_engine.Stats in
  section "E15  crash recovery: checkpoint overhead, resume-vs-cold, faulty serve";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tgd_bench_recover_%d" (Unix.getpid ()))
  in
  (* an unrewritable input, so the candidate space is swept to the end —
     about 5.2k candidates in 1,296 screening batches of four (chunk 1
     fixes the batch size whatever the cost model predicts), so even the
     every=16 cadence appends 81 records.  Memoization is off so each
     candidate costs a real chase and the relative overhead numbers are
     stable. *)
  let sigma = Families.fg_unrewritable 3 in
  let base_config =
    { (rewrite_config 3 2) with Rewrite.memo = false; chunk = Some 1 }
  in
  let cold f =
    List.init reps (fun _ ->
        Tgd_chase.Entailment.clear_memos ();
        Tgd_chase.Chase.clear_memo ();
        snd (time_it f))
    |> median
  in
  (* -- delta-chain write overhead at several cadences ------------------ *)
  row "(times: median of %d cold repetitions)@." reps;
  row "%-22s %12s %12s %10s@." "cadence" "time(s)" "deltas" "overhead";
  let run_with checkpoint checkpoint_every =
    ignore
      (Budget.value
         (Rewrite.fg_to_g
            ~config:{ base_config with Rewrite.checkpoint; checkpoint_every }
            sigma))
  in
  let baseline = cold (fun () -> run_with None 1) in
  row "%-22s %12.4f %12d %10s@." "none" baseline 0 "-";
  let delta_entries = Buffer.create 1024 in
  let first_delta = ref true in
  List.iter
    (fun every ->
      let cfg =
        Rewrite.log_config ~dir ~name:(Printf.sprintf "e15-delta%d" every) ()
      in
      (* the records each repetition appended: the sweep is deterministic,
         so every repetition appends the same number *)
      let counts = ref [] in
      let t =
        cold (fun () ->
            Delta_log.remove cfg;
            let recs0 = (Stats.global ()).Stats.delta_records in
            run_with (Some { Delta_log.log = cfg; resumed = None }) every;
            counts := ((Stats.global ()).Stats.delta_records - recs0) :: !counts)
      in
      Delta_log.remove cfg;
      let recs = List.hd !counts in
      if List.exists (( <> ) recs) !counts then
        failwith "E15: repetitions appended different record counts";
      let pct =
        if baseline > 0. then 100. *. (t -. baseline) /. baseline else 0.
      in
      row "%-22s %12.4f %12d %9.1f%%@."
        (Printf.sprintf "every %d batches" every)
        t recs pct;
      if not !first_delta then Buffer.add_string delta_entries ",\n";
      first_delta := false;
      Buffer.add_string delta_entries
        (Printf.sprintf
           "    {\"every\": %d, \"time_s\": %.6f, \"delta_records\": %d, \
            \"overhead_pct\": %.2f}"
           every t recs pct))
    [ 1; 4; 16 ];
  (* -- resume-vs-cold ------------------------------------------------- *)
  section "E15  resume-vs-cold (fuel-truncated sweep, then resume)";
  Tgd_chase.Entailment.clear_memos ();
  Tgd_chase.Chase.clear_memo ();
  let full_report, cold_s =
    time_it (fun () -> Budget.value (Rewrite.fg_to_g ~config:base_config sigma))
  in
  let log_cfg = Rewrite.log_config ~dir ~name:"e15-resume" () in
  (* pick a fuel that truncates partway through the sweep; the truncated
     run checkpoints through the incremental delta chain *)
  let truncated_run fuel =
    Tgd_chase.Entailment.clear_memos ();
    Tgd_chase.Chase.clear_memo ();
    let config =
      { base_config with
        Rewrite.budget = Budget.make ~fuel ();
        checkpoint = Some { Delta_log.log = log_cfg; resumed = None };
        checkpoint_every = 1
      }
    in
    time_it (fun () -> Rewrite.fg_to_g ~config sigma)
  in
  let rec find_fuel = function
    | [] -> None
    | fuel :: rest -> (
      Delta_log.remove log_cfg;
      match truncated_run fuel with
      | Budget.Truncated _, dt -> Some (fuel, dt)
      | Budget.Complete _, _ -> find_fuel rest)
  in
  let resume_entry =
    match find_fuel [ 50; 200; 800; 3_200; 12_800 ] with
    | None ->
      row "sweep too small to truncate: resume not measured@.";
      Printf.sprintf
        "  \"resume\": {\"cold_s\": %.6f, \"measured\": false}" cold_s
    | Some (fuel, truncated_s) ->
      let resumed =
        match Delta_log.load_journal ~decode:Rewrite.decode_chain log_cfg with
        | Ok { Delta_log.resumed = Some r; _ } -> r.Delta_log.state
        | _ -> failwith "E15: truncated sweep left no loadable checkpoint"
      in
      Tgd_chase.Entailment.clear_memos ();
      Tgd_chase.Chase.clear_memo ();
      let resumed_report, resume_s =
        time_it (fun () ->
            Budget.value
              (Rewrite.fg_to_g ~config:base_config ~resume:resumed sigma))
      in
      Delta_log.remove log_cfg;
      let agree = resumed_report.Rewrite.outcome = full_report.Rewrite.outcome in
      row "%-22s %12s %12s %12s %8s@." "" "cold(s)" "trunc(s)" "resume(s)"
        "agree";
      row "%-22s %12.4f %12.4f %12.4f %8b@."
        (Printf.sprintf "fuel %d" fuel)
        cold_s truncated_s resume_s agree;
      Printf.sprintf
        "  \"resume\": {\"measured\": true, \"fuel\": %d, \"cold_s\": %.6f, \
         \"truncated_s\": %.6f, \"resume_s\": %.6f, \
         \"resumed_equals_cold\": %b}"
        fuel cold_s truncated_s resume_s agree
  in
  (* -- request completion under injected faults ----------------------- *)
  section "E15  serve: requests completed under faults, retries 0 vs 3";
  let module Server = Tgd_serve.Server in
  let module Json = Tgd_serve.Json in
  let requests = 200 in
  let request i =
    Result.get_ok
      (Json.of_string
         (Printf.sprintf
            "{\"id\": %d, \"op\": \"entail\", \
             \"tgds\": \"E(x,y) -> S(y).\", \
             \"goal\": \"E(x,y), E(y,z) -> S(z).\"}"
            i))
  in
  let serve_entries = Buffer.create 1024 in
  let first = ref true in
  row "%-10s %-8s %10s %10s %12s %10s %10s@." "raise_p" "retries" "ok"
    "fault" "time(s)" "p50(ms)" "p99(ms)";
  List.iter
    (fun (raise_p, retries) ->
      let config =
        { Server.default_config with
          Server.retries;
          backoff_base_s = 1e-4
        }
      in
      let ok = ref 0 and fault = ref 0 in
      let lat = Array.make requests 0. in
      let _, dt =
        time_it (fun () ->
            Chaos.with_config
              { Chaos.default_config with Chaos.seed = 17; raise_p }
              (fun () ->
                for i = 1 to requests do
                  let t0 = Unix.gettimeofday () in
                  let resp = Server.handle config (request i) in
                  lat.(i - 1) <- Unix.gettimeofday () -. t0;
                  match Json.member "ok" resp with
                  | Some (Json.Bool true) -> incr ok
                  | _ -> incr fault
                done))
      in
      let p50 = 1000. *. Tgd_net.Loadgen.percentile lat 50.
      and p99 = 1000. *. Tgd_net.Loadgen.percentile lat 99. in
      row "%-10.2f %-8d %10d %10d %12.4f %10.3f %10.3f@." raise_p retries
        !ok !fault dt p50 p99;
      if not !first then Buffer.add_string serve_entries ",\n";
      first := false;
      Buffer.add_string serve_entries
        (Printf.sprintf
           "    {\"raise_p\": %.2f, \"retries\": %d, \"requests\": %d, \
            \"ok\": %d, \"fault\": %d, \"time_s\": %.6f, \
            \"p50_ms\": %.4f, \"p99_ms\": %.4f}"
           raise_p retries requests !ok !fault dt p50 p99))
    [ (0.05, 0); (0.05, 3); (0.2, 0); (0.2, 3) ];
  let oc = open_out "BENCH_recover.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"crash_recovery\",\n  \"repetitions\": %d,\n\
    \  \"baseline_s\": %.6f,\n\
    \  \"delta_overhead\": [\n%s\n  ],\n%s,\n\
    \  \"serve_under_faults\": [\n%s\n  ]\n}\n"
    reps baseline
    (Buffer.contents delta_entries)
    resume_entry
    (Buffer.contents serve_entries);
  close_out oc;
  row "@.BENCH_recover.json written@."

(* ------------------------------------------------------------------ *)
(* E16: concurrent serving — socket throughput, warm-vs-cold cache,   *)
(* throughput under injected faults.                                  *)
(* ------------------------------------------------------------------ *)

let e16 ~quick () =
  let module Transport = Tgd_net.Transport in
  let module Dispatcher = Tgd_net.Dispatcher in
  let module Loadgen = Tgd_net.Loadgen in
  let module Warm = Tgd_net.Warm in
  let module Chaos = Tgd_engine.Chaos in
  let module Fleet = Tgd_net.Fleet in
  let module Supervisor = Tgd_engine.Supervisor in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tgd_bench_serve_%d.sock" (Unix.getpid ()))
  in
  let addr = Transport.Unix_sock sock in
  let config workers =
    { Transport.default_config with
      Transport.dispatcher =
        { Dispatcher.default_config with Dispatcher.workers };
      max_connections = 128
    }
  in
  let with_server ?(workers = 4) f =
    let t = Transport.start (config workers) addr in
    Fun.protect ~finally:(fun () -> ignore (Transport.stop t)) (fun () -> f t)
  in
  (* -- fleet: process-isolated shards under kills --------------------- *)
  (* This block runs before anything in the bench process spawns a
     domain: OCaml refuses [Unix.fork] forever after the first
     [Domain.spawn], so the forking fleet rows must come first and the
     in-process baseline (which spawns a worker-pool domain) after.
     When the whole suite runs, earlier experiments have already spawned
     domains — probe fork availability and record the skip honestly
     instead of crashing ([bench serve] alone always takes this path). *)
  section "E16  fleet: sharded serving, shard kills, failover";
  let cores = Domain.recommended_domain_count () in
  let can_fork =
    try
      (match Unix.fork () with
      | 0 -> Unix._exit 0
      | pid -> ignore (Unix.waitpid [] pid));
      true
    with Failure _ -> false
  in
  let fleet_conns = 8 and fleet_per_conn = if quick then 15 else 40 in
  let fleet_workload = Loadgen.multi_workload ~ontologies:8 ~distinct:4 () in
  let fleet_rows = Buffer.create 1024 in
  let fleet_row ~mode ~shards ~kills ~respawns (r : Loadgen.result) =
    if Buffer.length fleet_rows > 0 then Buffer.add_string fleet_rows ",\n";
    Buffer.add_string fleet_rows
      (Printf.sprintf
         "    {\"mode\": %S, \"shards\": %d, \"kills\": %S, \
          \"requests\": %d, \"ok\": %d, \"errors\": %d, \"malformed\": %d, \
          \"reconnects\": %d, \"respawns\": %d, \"req_per_s\": %.1f, \
          \"p99_ms\": %.4f}"
         mode shards kills r.Loadgen.requests r.Loadgen.ok r.Loadgen.errors
         r.Loadgen.malformed r.Loadgen.reconnects respawns
         (Loadgen.throughput r)
         (1000. *. Loadgen.percentile r.Loadgen.latencies_s 99.));
    row "%-8s %-10s %8d %8d %10d %11d %9d %10.1f %10.3f@." mode kills
      r.Loadgen.ok r.Loadgen.errors r.Loadgen.malformed r.Loadgen.reconnects
      respawns (Loadgen.throughput r)
      (1000. *. Loadgen.percentile r.Loadgen.latencies_s 99.)
  in
  row "(multi workload: %d ontologies, %d connections x %d requests, \
       %d cores)@." 8 fleet_conns fleet_per_conn cores;
  row "%-8s %-10s %8s %8s %10s %11s %9s %10s %10s@." "mode" "kills" "ok"
    "errors" "malformed" "reconnects" "respawns" "req/s" "p99(ms)";
  if can_fork then begin
    let fleet_sock =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tgd_bench_fleet_%d.sock" (Unix.getpid ()))
    in
    let fleet_addr = Transport.Unix_sock fleet_sock in
    let fleet_config =
      let shard = config 2 in
      { Fleet.default_config with
        Fleet.shards = 4;
        (* failover retries ride on the shard's server config *)
        shard =
          { shard with
            Transport.dispatcher =
              { shard.Transport.dispatcher with
                Dispatcher.server =
                  { Tgd_serve.Server.default_config with
                    retries = 6;
                    backoff_base_s = 0.05
                  }
              }
          };
        cache_bytes = Some (32 * 1024 * 1024);
        beat_s = 0.1;
        policy =
          { Supervisor.max_restarts = 1000;
            backoff_base_s = 0.05;
            backoff_cap_s = 0.5;
            wedge_timeout_s = Some 5.0;
            tick_s = 0.05
          }
      }
    in
    let with_fleet f =
      let t = Fleet.start fleet_config fleet_addr in
      Fun.protect ~finally:(fun () -> ignore (Fleet.stop t)) (fun () -> f t)
    in
    let drive t =
      Loadgen.run ~fault_tolerant:true fleet_addr ~connections:fleet_conns
        ~requests:fleet_per_conn fleet_workload
      |> fun r -> (r, Fleet.respawn_count t)
    in
    (* a respawn can land just after the last response; give the monitor
       a moment so the row records the recovery it actually performed *)
    let await_respawn t =
      let deadline = Unix.gettimeofday () +. 10. in
      while Fleet.respawn_count t = 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done
    in
    let r, respawns = with_fleet drive in
    fleet_row ~mode:"fleet" ~shards:4 ~kills:"none" ~respawns r;
    let r, respawns =
      with_fleet (fun t ->
          let killer =
            Thread.create
              (fun () ->
                Thread.delay 0.3;
                ignore (Fleet.kill_shard t 0))
              ()
          in
          let r, _ = drive t in
          Thread.join killer;
          await_respawn t;
          (r, Fleet.respawn_count t))
    in
    fleet_row ~mode:"fleet" ~shards:4 ~kills:"one" ~respawns r;
    let r, respawns =
      with_fleet (fun t ->
          Chaos.with_config
            { Chaos.default_config with Chaos.seed = 17; kill_p = 0.04 }
            (fun () ->
              let r, _ = drive t in
              await_respawn t;
              (r, Fleet.respawn_count t)))
    in
    fleet_row ~mode:"fleet" ~shards:4 ~kills:"periodic" ~respawns r
  end
  else
    row "(fleet rows skipped: fork unavailable after domain spawn — run \
         [bench serve] alone)@.";
  Warm.configure ~cache_bytes:(Some (64 * 1024 * 1024));
  (* the in-process comparison point: same workload and connection
     count, one process, a 4-worker domain pool.  On a single-core
     machine the 4-shard fleet cannot beat this — the JSON carries
     [cores] so the multi-core CI gate knows when to enforce
     fleet >= single. *)
  Warm.reset ();
  let single =
    with_server ~workers:4 (fun _ ->
        Loadgen.run ~fault_tolerant:true addr ~connections:fleet_conns
          ~requests:fleet_per_conn fleet_workload)
  in
  fleet_row ~mode:"single" ~shards:1 ~kills:"none" ~respawns:0 single;
  section "E16  serving: socket throughput, warm-vs-cold cache, chaos";
  (* -- sustained throughput by connection count ----------------------- *)
  let per_conn = if quick then 20 else 50 in
  let ks = [ 1; 4; 16; 64 ] in
  row "(entail workload, %d requests per connection, 4 workers)@." per_conn;
  row "%-6s %10s %10s %10s %12s %10s %10s@." "K" "ok" "errors" "malformed"
    "req/s" "p50(ms)" "p99(ms)";
  let tp_entries = Buffer.create 1024 in
  List.iteri
    (fun idx k ->
      Warm.reset ();
      let r =
        with_server (fun _ ->
            Loadgen.run addr ~connections:k ~requests:per_conn
              (Loadgen.entail_workload ~distinct:8 ()))
      in
      row "%-6d %10d %10d %10d %12.1f %10.3f %10.3f@." k r.Loadgen.ok
        r.Loadgen.errors r.Loadgen.malformed (Loadgen.throughput r)
        (1000. *. Loadgen.percentile r.Loadgen.latencies_s 50.)
        (1000. *. Loadgen.percentile r.Loadgen.latencies_s 99.);
      if idx > 0 then Buffer.add_string tp_entries ",\n";
      Buffer.add_string tp_entries
        (Printf.sprintf
           "    {\"connections\": %d, \"requests\": %d, \"ok\": %d, \
            \"errors\": %d, \"malformed\": %d, \"req_per_s\": %.1f, \
            \"p50_ms\": %.4f, \"p99_ms\": %.4f}"
           k r.Loadgen.requests r.Loadgen.ok r.Loadgen.errors
           r.Loadgen.malformed (Loadgen.throughput r)
           (1000. *. Loadgen.percentile r.Loadgen.latencies_s 50.)
           (1000. *. Loadgen.percentile r.Loadgen.latencies_s 99.)))
    ks;
  (* -- warm vs cold cache --------------------------------------------- *)
  section "E16  warm-vs-cold: same requests, empty vs populated caches";
  let wc_conns = 4 and wc_per_conn = if quick then 25 else 60 in
  let workload = Loadgen.entail_workload ~distinct:12 () in
  let cold, warm =
    with_server (fun _ ->
        Warm.reset ();
        let cold =
          Loadgen.run addr ~connections:wc_conns ~requests:wc_per_conn
            workload
        in
        let warm =
          Loadgen.run addr ~connections:wc_conns ~requests:wc_per_conn
            workload
        in
        (cold, warm))
  in
  let cache = Warm.counters () in
  row "%-6s %12s %12s@." "" "cold req/s" "warm req/s";
  row "%-6s %12.1f %12.1f   (cache: %d hits / %d misses)@." ""
    (Loadgen.throughput cold) (Loadgen.throughput warm)
    cache.Tgd_engine.Memo.hits cache.Tgd_engine.Memo.misses;
  let wc_entry =
    Printf.sprintf
      "  \"warm_vs_cold\": {\"connections\": %d, \"requests\": %d, \
       \"cold_req_per_s\": %.1f, \"warm_req_per_s\": %.1f, \
       \"cold_p50_ms\": %.4f, \"warm_p50_ms\": %.4f, \
       \"cache_hits\": %d, \"cache_misses\": %d, \"evictions\": %d}"
      wc_conns cold.Loadgen.requests (Loadgen.throughput cold)
      (Loadgen.throughput warm)
      (1000. *. Loadgen.percentile cold.Loadgen.latencies_s 50.)
      (1000. *. Loadgen.percentile warm.Loadgen.latencies_s 50.)
      cache.Tgd_engine.Memo.hits cache.Tgd_engine.Memo.misses
      cache.Tgd_engine.Memo.evicted
  in
  (* -- throughput under injected faults ------------------------------- *)
  section "E16  chaos: throughput as fault probability rises";
  let chaos_conns = 8 and chaos_per_conn = if quick then 15 else 30 in
  row "%-10s %10s %10s %10s %12s@." "raise_p" "ok" "errors" "malformed"
    "req/s";
  let chaos_entries = Buffer.create 1024 in
  List.iteri
    (fun idx raise_p ->
      Warm.reset ();
      (* a fresh server per row: one row's retries and pool traffic
         must not bleed into the next row's numbers *)
      let r =
        with_server (fun _ ->
            Chaos.with_config
              { Chaos.default_config with Chaos.seed = 17; raise_p }
              (fun () ->
                Loadgen.run addr ~connections:chaos_conns
                  ~requests:chaos_per_conn
                  (Loadgen.entail_workload ~distinct:8 ())))
      in
      row "%-10.2f %10d %10d %10d %12.1f@." raise_p r.Loadgen.ok
        r.Loadgen.errors r.Loadgen.malformed (Loadgen.throughput r);
      if idx > 0 then Buffer.add_string chaos_entries ",\n";
      Buffer.add_string chaos_entries
        (Printf.sprintf
           "    {\"raise_p\": %.2f, \"connections\": %d, \"requests\": %d, \
            \"ok\": %d, \"errors\": %d, \"malformed\": %d, \
            \"req_per_s\": %.1f}"
           raise_p chaos_conns r.Loadgen.requests r.Loadgen.ok
           r.Loadgen.errors r.Loadgen.malformed (Loadgen.throughput r)))
    [ 0.0; 0.05; 0.2 ];
  Warm.configure ~cache_bytes:None;
  (try Unix.unlink sock with Unix.Unix_error (_, _, _) -> ());
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"serve\",\n\
    \  \"fleet\": {\"cores\": %d, \"fork_available\": %b, \"rows\": [\n\
     %s\n  ]},\n\
    \  \"throughput\": [\n%s\n  ],\n%s,\n\
    \  \"chaos\": [\n%s\n  ]\n}\n"
    cores can_fork (Buffer.contents fleet_rows) (Buffer.contents tp_entries)
    wc_entry
    (Buffer.contents chaos_entries);
  close_out oc;
  row "@.BENCH_serve.json written@."

let () =
  let has s = Array.exists (String.equal s) Sys.argv in
  let quick = has "quick" in
  let reps = if quick then 3 else 5 in
  
  Fmt.pr "Reproduction harness — Console, Kolaitis, Pieris: Model-theoretic@.";
  Fmt.pr "Characterizations of Rule-based Ontologies (PODS 2021)@.";
  if has "parallel" || has "analysis" || has "recover" || has "serve" then begin
    (* just the requested JSON-emitting comparisons *)
    if has "parallel" then e12 ~reps ~quick ();
    if has "analysis" then e14 ~reps ();
    if has "recover" then e15 ~reps ();
    if has "serve" then e16 ~quick ();
    Fmt.pr "@.Done.@."
  end
  else begin
    e1 ();
    e2 ();
    e3 ();
    e4_e5 ();
    e6 ();
    e6_scaling ();
    e7 ();
    e8 ();
    e9 ();
    e10 ();
    e12 ~reps ~quick ();
    Fmt.pr "@.Done.@."
  end
