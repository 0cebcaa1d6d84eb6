(* tgdtool — command-line front end for the tgd-ontology toolkit.

   Subcommands:
     classify    classify the tgds of a file into the paper's classes
     chase       chase a database file with an ontology file
                 (--explain FACT prints a derivation tree)
     entails     decide Σ ⊨ σ by freezing + chase
     rewrite     run Algorithm 1 (g2l) or Algorithm 2 (fg2g)
     properties  bounded checks of the model-theoretic properties
     synthesize  recover a TGD_{n,m} axiomatization from a model oracle file
     count       print the Section 9.2 candidate-space bounds
     diagnose    full class-lattice + property report for a tgd set
     theory      chase a database with a mixed theory (tgds+egds+denials)
     datalog     semi-naive saturation for full tgds
     core        core (minimal retract) of an instance file
     acyclic     GYO α-acyclicity of each rule body
     refute      entailment with finite-countermodel search
     analyze     static analysis: termination certificates, dependency
                 graph, rule lints; exit 0 clean / 1 warnings / 2 errors *)

open Tgd_syntax
open Tgd_core
open Cmdliner (* last: Cmdliner.Term must shadow Tgd_syntax.Term *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_tgds_file path =
  match Tgd_parse.Parse.tgds (read_file path) with
  | Ok tgds -> tgds
  | Error e -> Fmt.failwith "%s: %a" path Tgd_parse.Parse.pp_error e

let parse_program_file ?schema path =
  match Tgd_parse.Parse.program ?schema (read_file path) with
  | Ok p -> p
  | Error e -> Fmt.failwith "%s: %a" path Tgd_parse.Parse.pp_error e

(* ---- common arguments ---- *)

let ontology_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"ONTOLOGY" ~doc:"File containing tgds (Datalog± syntax).")

let budget_arg =
  Arg.(
    value & opt int 64
    & info [ "rounds" ] ~docv:"N" ~doc:"Chase budget: maximum rounds.")

let max_facts_arg =
  Arg.(
    value & opt int 20_000
    & info [ "max-facts" ] ~docv:"N" ~doc:"Chase budget: maximum facts.")

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Wall-clock deadline in seconds.  On expiry the run stops \
              cooperatively, prints the partial result computed so far, \
              and exits with code 3.")

let fuel_arg =
  Arg.(
    value & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Total trigger-firing budget for the whole run (shared across \
              all chases it performs).  Exhaustion truncates like \
              $(b,--timeout): partial result, exit code 3.")

let budget_of rounds max_facts timeout fuel =
  Tgd_engine.Budget.make ~rounds ~facts:max_facts ?timeout_s:timeout ?fuel ()

(* Exit code 3 — distinct from 1 (negative verdict) and 2 (undecided) — is
   reserved for budget truncation across all subcommands; 4 for a durable
   checkpoint that exists but fails validation. *)
let truncated_exit =
  Cmd.Exit.info 3
    ~doc:"the run was truncated by its resource budget ($(b,--timeout), \
          $(b,--fuel), $(b,--rounds), $(b,--max-facts), or an injected \
          fault); the partial results printed are a sound prefix."

let rejected_exit =
  Cmd.Exit.info 4
    ~doc:"a durable checkpoint exists under $(b,--checkpoint-dir) but its \
          base does not verify (missing, bad magic/header, checksum \
          mismatch) or its log was written against another base.  Nothing \
          was resumed or overwritten; run $(b,tgdtool checkpoint inspect) \
          to see the damage, or delete the chain's files to start fresh.  \
          Mere delta-record damage never exits 4: the run resumes from the \
          last verifiable prefix with a warning."

let exits = truncated_exit :: rejected_exit :: Cmd.Exit.defaults

let checkpoint_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:"Persist progress under $(docv) as an incremental delta chain \
              (one base, $(i,NAME).base, written when the chain starts, and \
              an append-only log of per-barrier delta records, \
              $(i,NAME).log) and resume from it on restart (a notice goes \
              to stderr; stdout stays byte-comparable with an \
              uninterrupted run).  The chain is removed when the run \
              completes.  A torn final record is dropped silently; \
              mid-chain corruption resumes from the last verifiable prefix \
              with a warning; a chain with no verifiable base aborts with \
              exit code 4 instead of silently restarting.")

let checkpoint_every_arg =
  Arg.(
    value & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint cadence: committed screening batches between delta \
              records for $(b,rewrite) (default 1), committed chase rounds \
              per delta record for $(b,chase) (default 8).")

let checkpoint_fsync_arg =
  Arg.(
    value & flag
    & info [ "checkpoint-fsync" ]
        ~doc:"fsync the checkpoint files at every barrier (the base write \
              and each delta append).  Off by default: surviving kill -9 \
              needs no fsync, only power loss does.")

(* The one load path for incremental chains.  Nothing on disk starts
   fresh; a resume is announced on stderr (plus one warning line per
   degradation — a mid-chain corruption resumes from the verified prefix
   instead of failing); a rejected chain prints every diagnosis and exits
   4 — a chain with no verifiable base must never silently masquerade as a
   fresh start. *)
let load_journal ~decode log =
  match Tgd_engine.Delta_log.load_journal ~decode log with
  | Ok j ->
    Option.iter
      (fun r ->
        Fmt.epr "resuming from checkpoint %s@."
          (Tgd_engine.Delta_log.log_path log);
        List.iter
          (fun w -> Fmt.epr "checkpoint warning: %s@." w)
          r.Tgd_engine.Delta_log.warnings)
      j.Tgd_engine.Delta_log.resumed;
    j
  | Error messages ->
    List.iter (fun m -> Fmt.epr "checkpoint rejected: %s@." m) messages;
    exit 4

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print engine counters (index probes, triggers, memo hit rate).")

let naive_arg =
  Arg.(
    value & flag
    & info [ "naive-chase" ]
        ~doc:"Use the snapshot-rescan reference chase instead of the \
              semi-naive engine.")

let no_analyze_arg =
  Arg.(
    value & flag
    & info [ "no-analyze" ]
        ~doc:"Disable the static-analysis front-end: no               termination-certificate promotion of round-truncated chases               and no candidate prefiltering.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for parallel screening/matching; 1 (the \
              default) stays on the sequential path.  Results are \
              independent of N.")

let chunk_arg =
  Arg.(
    value & opt (some int) None
    & info [ "chunk" ] ~docv:"N"
        ~doc:"Items per pool claim for parallel screening/matching.  By \
              default the chunk is sized from the analysis strategy: \
              certified-terminating sets pack many cheap items per claim, \
              uncertified sets get small chunks for load balance.  Results \
              are independent of N.")

(* ---- classify ---- *)

let classify_cmd =
  let run path =
    let tgds = parse_tgds_file path in
    List.iter
      (fun t ->
        Fmt.pr "%a@.  classes: %a;  n = %d, m = %d@." Tgd.pp t
          Fmt.(list ~sep:(any ", ") Tgd_class.pp_cls)
          (Tgd_class.classify t) (Tgd.n_universal t) (Tgd.m_existential t))
      tgds;
    let n, m = Rewrite.class_bounds tgds in
    Fmt.pr "@.Σ ∈ TGD_{%d,%d}; termination certificate: %a@." n m
      Fmt.(option ~none:(any "none") Tgd_analysis.Termination.pp_cert)
      (Tgd_analysis.Termination.certificate tgds)
  in
  Cmd.v (Cmd.info "classify" ~doc:"Classify tgds into full/linear/guarded/frontier-guarded.")
    Term.(const run $ ontology_arg)

(* ---- chase ---- *)

let chase_cmd =
  let db_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DATABASE" ~doc:"File containing facts.")
  in
  let oblivious_arg =
    Arg.(value & flag & info [ "oblivious" ] ~doc:"Use the oblivious chase.")
  in
  let explain_arg =
    Arg.(
      value & opt (some string) None
      & info [ "explain" ] ~docv:"FACT"
          ~doc:"Print the derivation tree of a fact, e.g. \"T(a,c)\".")
  in
  let run path db_path rounds max_facts timeout fuel oblivious explain stats
      naive jobs chunk no_analyze checkpoint_dir checkpoint_every
      checkpoint_fsync =
    let sigma = parse_tgds_file path in
    let schema = Rewrite.schema_of sigma in
    let p = parse_program_file path in
    let schema =
      Schema.union schema (parse_program_file db_path).Tgd_parse.Parse.schema
    in
    ignore p;
    let db =
      Tgd_instance.Instance.of_facts schema
        (parse_program_file ~schema db_path).Tgd_parse.Parse.facts
    in
    let budget = budget_of rounds max_facts timeout fuel in
    match explain with
    | None ->
      let r =
        match checkpoint_dir with
        | Some dir ->
          if oblivious || naive then
            Fmt.failwith
              "--checkpoint-dir supports the default restricted engine \
               chase only";
          let log =
            Tgd_chase.Chase.log_config ~fsync:checkpoint_fsync ~dir
              ~name:"chase" ()
          in
          Tgd_chase.Chase.restricted_resumable ~budget ~jobs ?chunk
            ?every:checkpoint_every
            ~journal:(load_journal ~decode:Tgd_chase.Chase.decode_chain log)
            sigma db
        | None ->
          let chase =
            if oblivious then Tgd_chase.Chase.oblivious ?on_fire:None
            else Tgd_chase.Chase.restricted ?on_fire:None
          in
          chase ~naive ~budget ~jobs ?chunk ~analyze:(not no_analyze) sigma db
      in
      Fmt.pr "%a@.%a@." Tgd_chase.Chase.pp_result r Tgd_instance.Instance.pp
        r.Tgd_chase.Chase.instance;
      if stats then
        Fmt.pr "%a@." Tgd_engine.Stats.pp r.Tgd_chase.Chase.stats;
      (match r.Tgd_chase.Chase.outcome with
      | Tgd_chase.Chase.Truncated reason ->
        Fmt.pr
          "truncated (%a): kept %d facts from %d completed rounds, %d \
           firings@."
          Tgd_engine.Budget.pp_exhaustion reason
          (Tgd_instance.Instance.fact_count r.Tgd_chase.Chase.instance)
          r.Tgd_chase.Chase.rounds r.Tgd_chase.Chase.fired;
        exit 3
      | Tgd_chase.Chase.Terminated -> ())
    | Some fact_src ->
      let fact =
        match
          (Tgd_parse.Parse.program_exn ~schema (fact_src ^ ".")).Tgd_parse.Parse.facts
        with
        | [ f ] -> f
        | _ -> Fmt.failwith "--explain expects exactly one fact"
      in
      let r, log = Tgd_chase.Provenance.restricted ~budget sigma db in
      ignore r;
      (match Tgd_chase.Provenance.explain log fact with
      | Some tree -> Fmt.pr "%a@." Tgd_chase.Provenance.pp_tree tree
      | None ->
        Fmt.pr "%a is not derivable@." Tgd_syntax.Fact.pp fact;
        exit 1)
  in
  Cmd.v (Cmd.info "chase" ~exits ~doc:"Chase a database with a tgd ontology.")
    Term.(
      const run $ ontology_arg $ db_arg $ budget_arg $ max_facts_arg
      $ timeout_arg $ fuel_arg $ oblivious_arg $ explain_arg $ stats_arg
      $ naive_arg $ jobs_arg $ chunk_arg $ no_analyze_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ checkpoint_fsync_arg)

(* ---- entails ---- *)

let entails_cmd =
  let goal_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TGD" ~doc:"Goal tgd, e.g. \"R(x,y) -> T(x).\"")
  in
  let run path goal rounds max_facts timeout fuel =
    let sigma = parse_tgds_file path in
    let goal = Tgd_parse.Parse.tgd_exn goal in
    let answer =
      Tgd_chase.Entailment.entails
        ~budget:(budget_of rounds max_facts timeout fuel)
        sigma goal
    in
    Fmt.pr "%a@." Tgd_chase.Entailment.pp_answer answer;
    if answer = Tgd_chase.Entailment.Unknown then exit 2
  in
  Cmd.v (Cmd.info "entails" ~doc:"Decide Σ ⊨ σ via freezing and the chase.")
    Term.(
      const run $ ontology_arg $ goal_arg $ budget_arg $ max_facts_arg
      $ timeout_arg $ fuel_arg)

(* ---- rewrite ---- *)

let rewrite_cmd =
  let direction_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("g2l", `G2l); ("fg2g", `Fg2g) ])) None
      & info [] ~docv:"DIRECTION" ~doc:"g2l (Algorithm 1) or fg2g (Algorithm 2).")
  in
  let file_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"ONTOLOGY" ~doc:"Input set of tgds.")
  in
  let body_cap =
    Arg.(value & opt int 2 & info [ "max-body-atoms" ] ~docv:"N" ~doc:"Candidate body atom cap.")
  in
  let head_cap =
    Arg.(value & opt int 2 & info [ "max-head-atoms" ] ~docv:"N" ~doc:"Candidate head atom cap.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the rewriting to a file.")
  in
  let run direction path body head rounds max_facts timeout fuel out stats
      naive jobs chunk no_analyze checkpoint_dir checkpoint_every
      checkpoint_fsync =
    let sigma = parse_tgds_file path in
    let journal =
      Option.map
        (fun dir ->
          load_journal ~decode:Rewrite.decode_chain
            (Rewrite.log_config ~fsync:checkpoint_fsync ~dir
               ~name:
                 (match direction with
                 | `G2l -> "rewrite-g2l"
                 | `Fg2g -> "rewrite-fg2g")
               ()))
        checkpoint_dir
    in
    let config =
      Rewrite.
        { caps =
            Candidates.
              { max_body_atoms = body; max_head_atoms = head; keep_tautologies = false };
          budget = budget_of rounds max_facts timeout fuel;
          minimize = true;
          naive;
          memo = not naive;
          jobs;
          chunk;
          analyze = not no_analyze;
          checkpoint = journal;
          checkpoint_every = Option.value checkpoint_every ~default:1
        }
    in
    let outcome =
      match direction with
      | `G2l -> Rewrite.g_to_l ~config sigma
      | `Fg2g -> Rewrite.fg_to_g ~config sigma
    in
    let report = Tgd_engine.Budget.value outcome in
    Fmt.pr "n = %d, m = %d; %d candidates enumerated, %d entailed, %d \
            prefiltered@."
      report.Rewrite.n report.Rewrite.m report.Rewrite.candidates_enumerated
      report.Rewrite.candidates_entailed report.Rewrite.candidates_skipped;
    Fmt.pr "%a@." Rewrite.pp_outcome report.Rewrite.outcome;
    if stats then Fmt.pr "%a@." Tgd_engine.Stats.pp report.Rewrite.stats;
    match outcome with
    | Tgd_engine.Budget.Truncated { reason; partial; _ } ->
      (match partial.Rewrite.checkpoint with
      | Some cp ->
        Fmt.pr
          "truncated (%a): %d candidates screened before the trip; rerun \
           with a larger budget to resume from there@."
          Tgd_engine.Budget.pp_exhaustion reason cp.Rewrite.cursor
      | None ->
        Fmt.pr "truncated (%a)@." Tgd_engine.Budget.pp_exhaustion reason);
      exit 3
    | Tgd_engine.Budget.Complete _ -> (
      match report.Rewrite.outcome with
      | Rewrite.Rewritable sigma' ->
        Option.iter
          (fun path ->
            Tgd_parse.Print.to_file path (Tgd_parse.Print.tgds sigma' ^ "\n");
            Fmt.pr "written to %s@." path)
          out
      | Rewrite.Not_rewritable _ -> exit 1
      | Rewrite.Unknown _ -> exit 2)
  in
  Cmd.v
    (Cmd.info "rewrite" ~exits
       ~doc:"Rewrite guarded tgds into linear (g2l) or frontier-guarded into guarded (fg2g).")
    Term.(
      const run $ direction_arg $ file_arg $ body_cap $ head_cap $ budget_arg
      $ max_facts_arg $ timeout_arg $ fuel_arg $ out_arg $ stats_arg
      $ naive_arg $ jobs_arg $ chunk_arg $ no_analyze_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ checkpoint_fsync_arg)

(* ---- properties ---- *)

let properties_cmd =
  let dom_arg =
    Arg.(value & opt int 2 & info [ "dom" ] ~docv:"K" ~doc:"Domain bound for the checks.")
  in
  let run path dom =
    let sigma = parse_tgds_file path in
    let o = Ontology.axiomatic (Rewrite.schema_of sigma) sigma in
    let show : 'a. 'a Properties.verdict -> string = function
      | Properties.Holds -> "holds"
      | Properties.Fails _ -> "FAILS"
      | Properties.Inconclusive why -> "inconclusive: " ^ why
    in
    Fmt.pr "criticality (k ≤ %d):        %s@." dom (show (Properties.critical_up_to o dom));
    Fmt.pr "closed under ⊗ (dom ≤ %d):    %s@." dom
      (show (Properties.closed_under_products o ~dom_size:dom));
    Fmt.pr "closed under ∩ (dom ≤ %d):    %s@." dom
      (show (Properties.closed_under_intersections o ~dom_size:dom));
    Fmt.pr "closed under ∪ (dom ≤ %d):    %s@." dom
      (show (Properties.closed_under_unions o ~dom_size:dom));
    Fmt.pr "domain independent:          %s@."
      (show (Properties.domain_independent o ~dom_size:dom));
    Fmt.pr "closed under non-obl. dupl.: %s@."
      (show (Properties.closed_under_non_oblivious_dupext o ~dom_size:dom))
  in
  Cmd.v
    (Cmd.info "properties"
       ~doc:"Check the paper's model-theoretic properties on bounded universes.")
    Term.(const run $ ontology_arg $ dom_arg)

(* ---- synthesize ---- *)

let synthesize_cmd =
  let n_arg = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Universal variable bound.") in
  let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Existential variable bound.") in
  let dom_arg = Arg.(value & opt int 2 & info [ "dom" ] ~doc:"Verification domain bound.") in
  let run path n m dom =
    (* the file's tgds define the oracle; synthesis then recovers an
       equivalent axiomatization from membership alone *)
    let sigma = parse_tgds_file path in
    let schema = Rewrite.schema_of sigma in
    let o =
      Ontology.oracle ~name:"file oracle" schema (fun i ->
          Tgd_instance.Satisfaction.tgds i sigma)
    in
    let synth =
      Tgd_engine.Budget.value (Characterize.synthesize ~minimize:true o ~n ~m)
    in
    Fmt.pr "synthesized %d tgds:@." (List.length synth);
    List.iter (fun t -> Fmt.pr "  %a@." Tgd.pp t) synth;
    match Characterize.verify_axiomatization o synth ~dom_size:dom with
    | None -> Fmt.pr "verified on all instances with ≤ %d elements@." dom
    | Some cex ->
      Fmt.pr "DISAGREES on %a@." Tgd_instance.Instance.pp cex;
      exit 1
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Recover a TGD_{n,m} axiomatization from the ontology's membership oracle (Theorem 4.1).")
    Term.(const run $ ontology_arg $ n_arg $ m_arg $ dom_arg)

(* ---- count ---- *)

let count_cmd =
  let n_arg = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Universal variable bound.") in
  let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Existential variable bound.") in
  let run path n m =
    let sigma = parse_tgds_file path in
    let schema = Rewrite.schema_of sigma in
    Fmt.pr "schema: %a (|S| = %d, ar(S) = %d)@." Schema.pp schema
      (Schema.size schema) (Schema.max_arity schema);
    Fmt.pr "linear bodies  ≤ %a@." Bigint.pp (Counting.linear_bodies_bound schema ~n);
    Fmt.pr "guarded bodies ≤ %a@." Bigint.pp (Counting.guarded_bodies_bound schema ~n);
    Fmt.pr "heads          ≤ %a@." Bigint.pp (Counting.heads_bound schema ~n ~m);
    Fmt.pr "LTGD_{%d,%d} candidates ≤ %a@." n m Bigint.pp
      (Counting.linear_candidates_bound schema ~n ~m);
    Fmt.pr "GTGD_{%d,%d} candidates ≤ %a@." n m Bigint.pp
      (Counting.guarded_candidates_bound schema ~n ~m);
    Fmt.pr "per-tgd size   ≤ %a@." Bigint.pp (Counting.tgd_size_bound schema ~n ~m)
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Print the Section 9.2 candidate-space bounds for a schema.")
    Term.(const run $ ontology_arg $ n_arg $ m_arg)

(* ---- diagnose ---- *)

let diagnose_cmd =
  let dom_arg =
    Arg.(value & opt int 2 & info [ "dom" ] ~docv:"K" ~doc:"Domain bound for the property profile.")
  in
  let run path dom =
    let sigma = parse_tgds_file path in
    let report = Expressibility.diagnose ~dom_size:dom sigma in
    Fmt.pr "%a@." Expressibility.pp_report report
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Class-lattice membership (syntactic and semantic) and bounded property profile.")
    Term.(const run $ ontology_arg $ dom_arg)

(* ---- theory ---- *)

let theory_cmd =
  let db_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DATABASE" ~doc:"File containing facts.")
  in
  let run path db_path rounds max_facts timeout fuel =
    let prog = parse_program_file path in
    let schema =
      Schema.union prog.Tgd_parse.Parse.schema
        (parse_program_file db_path).Tgd_parse.Parse.schema
    in
    let db =
      Tgd_instance.Instance.of_facts schema
        (parse_program_file ~schema db_path).Tgd_parse.Parse.facts
    in
    let theory =
      Tgd_chase.Theory.
        { tgds = prog.Tgd_parse.Parse.tgds;
          egds = prog.Tgd_parse.Parse.egds;
          denials = prog.Tgd_parse.Parse.denials
        }
    in
    let r =
      Tgd_chase.Theory.chase
        ~budget:(budget_of rounds max_facts timeout fuel)
        theory db
    in
    Fmt.pr "%a (%d tgd firings, %d merges)@." Tgd_chase.Theory.pp_outcome
      r.Tgd_chase.Theory.outcome r.Tgd_chase.Theory.fired r.Tgd_chase.Theory.merges;
    Fmt.pr "%a@." Tgd_instance.Instance.pp r.Tgd_chase.Theory.instance;
    match r.Tgd_chase.Theory.outcome with
    | Tgd_chase.Theory.Model -> ()
    | Tgd_chase.Theory.Failed _ -> exit 1
    | Tgd_chase.Theory.Out_of_budget _ -> exit 3
  in
  Cmd.v
    (Cmd.info "theory" ~exits
       ~doc:"Chase a database with a mixed theory of tgds, egds, and denial constraints.")
    Term.(
      const run $ ontology_arg $ db_arg $ budget_arg $ max_facts_arg
      $ timeout_arg $ fuel_arg)

(* ---- datalog ---- *)

let datalog_cmd =
  let db_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"DATABASE" ~doc:"File containing facts.")
  in
  let max_facts_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-facts" ] ~docv:"N"
          ~doc:"Saturation fact cap (the fixpoint is finite; this guards \
                against misconfiguration).")
  in
  let run path db_path max_facts timeout fuel =
    let sigma = parse_tgds_file path in
    let schema =
      Schema.union (Rewrite.schema_of sigma)
        (parse_program_file db_path).Tgd_parse.Parse.schema
    in
    let db =
      Tgd_instance.Instance.of_facts schema
        (parse_program_file ~schema db_path).Tgd_parse.Parse.facts
    in
    let budget =
      Tgd_engine.Budget.make ~rounds:max_int ~facts:max_facts
        ?timeout_s:timeout ?fuel ()
    in
    match Tgd_chase.Datalog.saturate_with_stats ~budget sigma db with
    | Tgd_engine.Budget.Complete (result, stats) ->
      Fmt.pr "fixpoint in %d rounds, %d facts derived@."
        stats.Tgd_chase.Datalog.rounds stats.Tgd_chase.Datalog.derived;
      Fmt.pr "%a@." Tgd_instance.Instance.pp result
    | Tgd_engine.Budget.Truncated { reason; partial = result, stats; _ } ->
      Fmt.pr "truncated (%a) after %d rounds, %d facts derived@."
        Tgd_engine.Budget.pp_exhaustion reason stats.Tgd_chase.Datalog.rounds
        stats.Tgd_chase.Datalog.derived;
      Fmt.pr "%a@." Tgd_instance.Instance.pp result;
      exit 3
  in
  Cmd.v
    (Cmd.info "datalog" ~exits
       ~doc:"Semi-naive saturation of a database under full tgds.")
    Term.(
      const run $ ontology_arg $ db_arg $ max_facts_arg $ timeout_arg
      $ fuel_arg)

(* ---- core ---- *)

let core_cmd =
  let db_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"INSTANCE" ~doc:"File containing facts.")
  in
  let run db_path =
    let p = parse_program_file db_path in
    let i =
      Tgd_instance.Instance.of_facts p.Tgd_parse.Parse.schema p.Tgd_parse.Parse.facts
    in
    let core = Tgd_instance.Retract.core i in
    Fmt.pr "%d facts -> %d facts@." (Tgd_instance.Instance.fact_count i)
      (Tgd_instance.Instance.fact_count core);
    Fmt.pr "%a@." Tgd_instance.Instance.pp core
  in
  Cmd.v (Cmd.info "core" ~doc:"Compute the core (minimal retract) of an instance.")
    Term.(const run $ db_arg)

(* ---- acyclic ---- *)

let acyclic_cmd =
  let run path =
    let tgds = parse_tgds_file path in
    List.iter
      (fun t ->
        Fmt.pr "%a@.  body α-acyclic: %b@." Tgd.pp t
          (Hypergraph.is_acyclic (Tgd.body t)))
      tgds
  in
  Cmd.v
    (Cmd.info "acyclic" ~doc:"GYO α-acyclicity of each rule body (guarded bodies always pass).")
    Term.(const run $ ontology_arg)

(* ---- refute ---- *)

let refute_cmd =
  let goal_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"TGD" ~doc:"Goal tgd.")
  in
  let extra_arg =
    Arg.(
      value & opt int 1
      & info [ "extra" ] ~docv:"N"
          ~doc:"Fresh elements allowed in countermodels.")
  in
  let run path goal rounds max_facts timeout fuel extra =
    let sigma = parse_tgds_file path in
    let goal = Tgd_parse.Parse.tgd_exn goal in
    let answer =
      Refutation.entails
        ~budget:(budget_of rounds max_facts timeout fuel)
        ~extra sigma goal
    in
    Fmt.pr "%a@." Tgd_chase.Entailment.pp_answer answer;
    (match Refutation.countermodel ~extra sigma goal with
    | Some cm -> Fmt.pr "countermodel: %a@." Tgd_instance.Instance.pp cm
    | None -> ());
    if answer = Tgd_chase.Entailment.Unknown then exit 2
  in
  Cmd.v
    (Cmd.info "refute"
       ~doc:"Decide Σ ⊨ σ with chase + finite-countermodel search.")
    Term.(
      const run $ ontology_arg $ goal_arg $ budget_arg $ max_facts_arg
      $ timeout_arg $ fuel_arg $ extra_arg)

(* ---- analyze ---- *)

let analyze_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as a single JSON object.")
  in
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:"Also run the chase-backed subsumption lint (is each rule \
                entailed by the others?).  Costs one entailment check per \
                rule.")
  in
  let analyze_exits =
    Cmd.Exit.info 1 ~doc:"warning-severity diagnostics were reported."
    :: Cmd.Exit.info 2 ~doc:"error-severity diagnostics were reported."
    :: Cmd.Exit.defaults
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print every termination-lattice notion's verdict with its \
                refutation, not just the strongest certificate.")
  in
  let emit_cert_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-cert" ] ~docv:"FILE"
          ~doc:"Write the proof-carrying termination certificate (tgdcert \
                v1) to $(docv); verify it independently with $(b,tgdtool \
                certcheck).  Fails when the set did not certify.")
  in
  let run path json deep explain emit_cert =
    let prog = parse_program_file path in
    let tgds = prog.Tgd_parse.Parse.tgds in
    let oracle =
      if deep then
        Some
          (fun rest s ->
            Tgd_chase.Entailment.entails rest s = Tgd_chase.Entailment.Proved)
      else None
    in
    let report = Tgd_analysis.Analyze.run ?oracle tgds in
    if json then print_endline (Tgd_analysis.Analyze.to_json report)
    else begin
      Fmt.pr "%a@." Tgd_analysis.Analyze.pp report;
      if explain then Fmt.pr "%a@." Tgd_analysis.Analyze.pp_explain report
    end;
    (match emit_cert with
    | None -> ()
    | Some file -> (
      match Tgd_analysis.Analyze.certificate report with
      | Some cert ->
        Tgd_analysis.Cert.to_file file tgds cert;
        Fmt.epr "certificate written to %s@." file
      | None ->
        Fmt.epr "no certificate to emit: the set did not certify@.";
        exit 2));
    let code = Tgd_analysis.Analyze.exit_code report in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "analyze" ~exits:analyze_exits
       ~doc:"Static analysis of a rule set: predicate dependency graph, \
             the chase-termination lattice (weak/joint/super-weak \
             acyclicity, critical-instance MSA/MFA, stratified \
             composition — with witnesses), and rule lints.  Exit code 0 \
             when clean, 1 with warnings, 2 with errors.")
    Term.(
      const run $ ontology_arg $ json_arg $ deep_arg $ explain_arg
      $ emit_cert_arg)

(* ---- certcheck ---- *)

let certcheck_cmd =
  let cert_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CERT" ~doc:"Certificate file (tgdcert v1).")
  in
  let certcheck_exits =
    Cmd.Exit.info 2
      ~doc:"the certificate was rejected: malformed, bound to a different \
            rule set, or its witness fails verification."
    :: Cmd.Exit.defaults
  in
  let run path cert_path =
    let sigma = parse_tgds_file path in
    let ic = open_in_bin cert_path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Tgd_analysis.Certcheck.verify sigma text with
    | Ok notion ->
      Fmt.pr "certificate verified: %a@." Tgd_analysis.Termination.pp_cert
        notion
    | Error reason ->
      Fmt.epr "certificate rejected: %s@." reason;
      exit 2
  in
  Cmd.v
    (Cmd.info "certcheck" ~exits:certcheck_exits
       ~doc:"Independently verify a proof-carrying termination certificate \
             (written by $(b,tgdtool analyze --emit-cert)) against a rule \
             set.  The checker shares no verification code with the \
             analysis that produced the certificate.")
    Term.(const run $ ontology_arg $ cert_arg)

(* ---- checkpoint ---- *)

let checkpoint_cmd =
  let module D = Tgd_engine.Delta_log in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Directory holding delta-checkpoint chains (the value passed \
                as $(b,--checkpoint-dir)).")
  in
  let inspect_exits =
    Cmd.Exit.info 1
      ~doc:"at least one chain carries corruption (a missing or bad base, \
            a log header that is unreadable or names another base, or a \
            CRC-invalid mid-chain record).  A torn final record — the \
            normal kill -9 signature — does not count."
    :: Cmd.Exit.defaults
  in
  let run dir =
    let names = D.scan ~dir in
    if names = [] then Fmt.pr "no checkpoint chains under %s@." dir
    else begin
      let corrupt = ref false in
      let bad fmt =
        corrupt := true;
        Fmt.pr fmt
      in
      List.iter
        (fun name ->
          let i = D.inspect ~dir ~name in
          Fmt.pr "%s:@." name;
          (match i.D.base_status with
          | `Ok (kind, version) ->
            Fmt.pr "  base  %s: %d bytes, crc ok (kind %s, version %d)@."
              i.D.base_file i.D.base_bytes kind version
          | `Missing -> bad "  base  %s: MISSING@." i.D.base_file
          | `Bad why -> bad "  base  %s: BAD (%s)@." i.D.base_file why);
          (match i.D.log_status with
          | `Ok ->
            Fmt.pr "  log   %s: %d records, %d bytes@." i.D.log_file
              (List.length i.D.records) i.D.log_bytes
          | `Missing -> Fmt.pr "  log   %s: none (empty chain)@." i.D.log_file
          | `Bad why -> bad "  log   %s: BAD (%s)@." i.D.log_file why);
          List.iter
            (fun r ->
              match r.D.r_status with
              | `Ok ->
                Fmt.pr "    record %d at %d: %d bytes, crc ok@." r.D.r_index
                  r.D.r_offset r.D.r_bytes
              | `Torn ->
                Fmt.pr
                  "    record %d at %d: torn tail (%d bytes, dropped on \
                   resume)@."
                  r.D.r_index r.D.r_offset r.D.r_bytes
              | `Corrupt why ->
                bad "    record %d at %d: CORRUPT (%s)@." r.D.r_index
                  r.D.r_offset why)
            i.D.records)
        names;
      if !corrupt then exit 1
    end
  in
  let inspect_cmd =
    Cmd.v
      (Cmd.info "inspect" ~exits:inspect_exits
         ~doc:"Print every chain under $(i,DIR): base and delta-chain \
               lengths, byte sizes, and per-record CRC status.  Exit 0 when \
               everything verifies (a torn tail is fine), 1 when any record \
               or base is corrupt.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "checkpoint"
       ~doc:"Inspect durable delta-checkpoint chains ($(b,--checkpoint-dir)).")
    [ inspect_cmd ]

(* ---- serve ---- *)

let serve_cmd =
  let retries_arg =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry attempts for a request hit by a transient injected \
                fault before answering with the $(b,fault) error code.")
  in
  let queue_limit_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Queued requests beyond which new ones are shed immediately \
                with the $(b,overloaded) error code.")
  in
  let chaos_raise_p_arg =
    Arg.(
      value & opt float 0.
      & info [ "chaos-raise-p" ] ~docv:"P"
          ~doc:"Install fault injection: probability of an injected \
                exception at each instrumented engine site (for robustness \
                testing; see also $(b,--chaos-seed)).")
  in
  let chaos_delay_p_arg =
    Arg.(
      value & opt float 0.
      & info [ "chaos-delay-p" ] ~docv:"P"
          ~doc:"Fault injection: probability of a 1ms delay per site step.")
  in
  let chaos_kill_p_arg =
    Arg.(
      value & opt float 0.
      & info [ "chaos-kill-p" ] ~docv:"P"
          ~doc:"Fault injection for $(b,--shards) fleets: probability per \
                supervisor tick of SIGKILLing a random shard process — the \
                deterministic shard-kill drill behind the fleet CI job.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed for the deterministic fault-injection schedule.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Serve from $(docv) forked shard processes instead of one: \
                each shard runs the full socket serve loop with its own \
                worker domains and warm caches; the parent supervises \
                (heartbeats, respawn with backoff, degraded mode below \
                quorum) and routes requests by ontology digest with \
                transparent failover.  Requires $(b,--socket) or \
                $(b,--tcp).")
  in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) instead of \
                serving stdin/stdout.  Concurrent connections share the \
                warm entailment, analyze and certificate caches and a \
                pool of $(b,--workers) worker domains.")
  in
  let tcp_arg =
    Arg.(
      value & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on a TCP socket (same concurrent serving mode as \
                $(b,--socket)).")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing requests.")
  in
  let max_connections_arg =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent connections served; extra connections get one \
                $(b,overloaded) response and are closed.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections idle longer than $(docv).")
  in
  let cache_bytes_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cache-bytes" ] ~docv:"BYTES"
          ~doc:"Ceiling on the shared warm caches, with LRU eviction; \
                unlimited by default.  Each table keeps to its own share \
                of $(docv): 14/32 to the entailment memo, 2/32 to the \
                analyze reports and 1/32 to the termination-lattice \
                verdicts; the remaining 15/32 is assigned to no table.")
  in
  let max_line_bytes_arg =
    Arg.(
      value
      & opt int Tgd_serve.Json.default_max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES"
          ~doc:"Request lines longer than $(docv) are answered with the \
                $(b,request_too_large) error code instead of buffered.")
  in
  let drain_grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"On SIGINT/SIGTERM, patience for in-flight connections to \
                finish before they are cut.")
  in
  let run rounds max_facts timeout retries queue_limit chaos_raise_p
      chaos_delay_p chaos_kill_p chaos_seed shards socket tcp workers
      max_connections idle_timeout cache_bytes max_line_bytes drain_grace
      checkpoint_dir checkpoint_every =
    if chaos_raise_p > 0. || chaos_delay_p > 0. || chaos_kill_p > 0. then
      Tgd_engine.Chaos.install
        { Tgd_engine.Chaos.default_config with
          seed = chaos_seed;
          raise_p = chaos_raise_p;
          delay_p = chaos_delay_p;
          kill_p = chaos_kill_p
        };
    let config =
      { Tgd_serve.Server.default_config with
        rounds;
        max_facts;
        timeout_s = timeout;
        retries;
        queue_limit;
        max_line_bytes;
        checkpoint_dir;
        checkpoint_every =
          Option.value checkpoint_every
            ~default:Tgd_serve.Server.default_config.Tgd_serve.Server
                     .checkpoint_every
      }
    in
    let addr =
      match (socket, tcp) with
      | Some _, Some _ ->
        Fmt.epr "tgdtool serve: --socket and --tcp are exclusive@.";
        exit 2
      | Some path, None -> Some (Tgd_net.Transport.Unix_sock path)
      | None, Some hostport -> (
        match String.rindex_opt hostport ':' with
        | Some i -> (
          let host = String.sub hostport 0 i
          and port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port with
          | Some p -> Some (Tgd_net.Transport.Tcp ((if host = "" then "127.0.0.1" else host), p))
          | None ->
            Fmt.epr "tgdtool serve: --tcp expects HOST:PORT@.";
            exit 2)
        | None ->
          Fmt.epr "tgdtool serve: --tcp expects HOST:PORT@.";
          exit 2)
      | None, None -> None
    in
    let tconfig =
      { Tgd_net.Transport.dispatcher =
          { Tgd_net.Dispatcher.server = config;
            workers;
            admission = Tgd_net.Admission.default_config ~queue_limit
          };
        max_connections;
        idle_timeout_s = idle_timeout;
        drain_grace_s = drain_grace
      }
    in
    if shards > 1 then
      match addr with
      | None ->
        Fmt.epr "tgdtool serve: --shards needs --socket or --tcp@.";
        exit 2
      | Some addr ->
        (* the parent is pure supervisor + router: warm caches and worker
           domains live in the forked shards, configured post-fork *)
        exit
          (Tgd_net.Fleet.serve
             { Tgd_net.Fleet.default_config with
               shards;
               shard = tconfig;
               cache_bytes
             }
             addr)
    else begin
      Tgd_net.Warm.configure ~cache_bytes;
      exit
        (Tgd_net.Transport.run
           (match addr with
           | Some addr -> Tgd_net.Transport.start tconfig addr
           | None -> Tgd_net.Transport.stdio tconfig stdin stdout))
    end
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Serve classify/chase/entail/rewrite/analyze requests over \
             line-delimited JSON — on stdin/stdout by default, or \
             concurrently on a Unix/TCP socket with $(b,--socket) or \
             $(b,--tcp).  Every accepted request gets exactly one terminal \
             response; transient injected faults are retried with backoff; \
             requests beyond $(b,--queue-limit) (earlier, when predicted \
             expensive by static analysis) are shed with a structured \
             $(b,overloaded) error; SIGINT and SIGTERM drain in-flight \
             work before exiting.  With $(b,--shards N) the socket is \
             served by a supervised fleet of N forked shard processes \
             with failover (see $(b,tgdtool fleet)).")
    Term.(
      const run $ budget_arg $ max_facts_arg $ timeout_arg $ retries_arg
      $ queue_limit_arg $ chaos_raise_p_arg $ chaos_delay_p_arg
      $ chaos_kill_p_arg $ chaos_seed_arg $ shards_arg $ socket_arg
      $ tcp_arg $ workers_arg $ max_connections_arg $ idle_timeout_arg
      $ cache_bytes_arg $ max_line_bytes_arg $ drain_grace_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg)

(* ---- loadgen ---- *)

let loadgen_cmd =
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Connect to a Unix-domain socket server at $(docv).")
  in
  let tcp_arg =
    Arg.(
      value & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect to a TCP server.")
  in
  let connections_arg =
    Arg.(
      value & opt int 4
      & info [ "connections" ] ~docv:"K"
          ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 25
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per connection.")
  in
  let op_arg =
    Arg.(
      value & opt string "entail"
      & info [ "op" ] ~docv:"OP"
          ~doc:"Workload: $(b,entail), $(b,classify), $(b,mixed), \
                $(b,rewrite) (g2l sweeps — see $(b,--ontology)), \
                $(b,batch) (chunked multi-request submissions), or \
                $(b,multi) (entailment over $(b,--ontologies) distinct \
                rule sets — spreads across fleet shards).")
  in
  let distinct_arg =
    Arg.(
      value & opt int 8
      & info [ "distinct" ] ~docv:"D"
          ~doc:"Distinct request shapes cycled through (repeats warm the \
                server's caches).")
  in
  let ontology_arg =
    Arg.(
      value & opt (some string) None
      & info [ "ontology" ] ~docv:"FILE"
          ~doc:"For $(b,--op rewrite): the ontology each request screens \
                (e.g. a generated data/gen_*.dlp fixture).  Default: a \
                small built-in layered set.")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"B"
          ~doc:"For $(b,--op batch): sub-requests per submission.")
  in
  let ontologies_arg =
    Arg.(
      value & opt int 8
      & info [ "ontologies" ] ~docv:"K"
          ~doc:"For $(b,--op multi): distinct rule sets cycled through.")
  in
  let fault_tolerant_arg =
    Arg.(
      value & flag
      & info [ "fault-tolerant" ]
          ~doc:"Reconnect and resend on transport failures (reset, EOF \
                mid-request) instead of failing, counting them under \
                $(b,reconnects) — transport recoveries stay distinct from \
                request-level $(b,errors).  The client side of the fleet \
                shard-kill drill.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the summary as a JSON object.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit 1 if any response was malformed (protocol-shape \
                violation) — used by the CI smoke job.")
  in
  let run socket tcp connections requests op distinct ontology batch
      ontologies fault_tolerant json check =
    let addr =
      match (socket, tcp) with
      | Some path, None -> Tgd_net.Transport.Unix_sock path
      | None, Some hostport -> (
        match String.rindex_opt hostport ':' with
        | Some i -> (
          let host = String.sub hostport 0 i
          and port =
            String.sub hostport (i + 1) (String.length hostport - i - 1)
          in
          match int_of_string_opt port with
          | Some p ->
            Tgd_net.Transport.Tcp
              ((if host = "" then "127.0.0.1" else host), p)
          | None ->
            Fmt.epr "tgdtool loadgen: --tcp expects HOST:PORT@.";
            exit 2)
        | None ->
          Fmt.epr "tgdtool loadgen: --tcp expects HOST:PORT@.";
          exit 2)
      | _ ->
        Fmt.epr "tgdtool loadgen: exactly one of --socket/--tcp required@.";
        exit 2
    in
    let tgds =
      Option.map
        (fun path ->
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic)))
        ontology
    in
    let workload =
      match
        Tgd_net.Loadgen.workload_of_name ~distinct ?tgds ~batch ~ontologies op
      with
      | Some w -> w
      | None ->
        Fmt.epr "tgdtool loadgen: unknown --op %S@." op;
        exit 2
    in
    let r =
      Tgd_net.Loadgen.run ~fault_tolerant addr ~connections ~requests workload
    in
    if json then
      print_endline (Tgd_serve.Json.to_string (Tgd_net.Loadgen.result_json r))
    else
      Fmt.pr
        "%d connections x %d requests: %d ok, %d errors, %d malformed, %d \
         reconnects in %.2fs (%.1f req/s, p50 %.2fms, p99 %.2fms)@."
        r.Tgd_net.Loadgen.connections requests r.Tgd_net.Loadgen.ok
        r.Tgd_net.Loadgen.errors r.Tgd_net.Loadgen.malformed
        r.Tgd_net.Loadgen.reconnects r.Tgd_net.Loadgen.elapsed_s
        (Tgd_net.Loadgen.throughput r)
        (1000. *. Tgd_net.Loadgen.percentile r.Tgd_net.Loadgen.latencies_s 50.)
        (1000. *. Tgd_net.Loadgen.percentile r.Tgd_net.Loadgen.latencies_s 99.);
    if check && r.Tgd_net.Loadgen.malformed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen" ~exits
       ~doc:"Drive a running $(b,tgdtool serve --socket/--tcp) server with \
             concurrent closed-loop clients and report throughput and \
             latency percentiles.")
    Term.(
      const run $ socket_arg $ tcp_arg $ connections_arg $ requests_arg
      $ op_arg $ distinct_arg $ ontology_arg $ batch_arg $ ontologies_arg
      $ fault_tolerant_arg $ json_arg $ check_arg)

(* ---- fleet ---- *)

let fleet_cmd =
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Connect to a fleet front-end on a Unix-domain socket.")
  in
  let tcp_arg =
    Arg.(
      value & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Connect to a fleet front-end over TCP.")
  in
  let run socket tcp =
    let addr =
      match (socket, tcp) with
      | Some path, None -> Tgd_net.Transport.Unix_sock path
      | None, Some hostport -> (
        match String.rindex_opt hostport ':' with
        | Some i -> (
          let host = String.sub hostport 0 i
          and port =
            String.sub hostport (i + 1) (String.length hostport - i - 1)
          in
          match int_of_string_opt port with
          | Some p ->
            Tgd_net.Transport.Tcp
              ((if host = "" then "127.0.0.1" else host), p)
          | None ->
            Fmt.epr "tgdtool fleet: --tcp expects HOST:PORT@.";
            exit 2)
        | None ->
          Fmt.epr "tgdtool fleet: --tcp expects HOST:PORT@.";
          exit 2)
      | _ ->
        Fmt.epr "tgdtool fleet: exactly one of --socket/--tcp required@.";
        exit 2
    in
    let fd = Tgd_net.Loadgen.connect addr in
    let ic = Unix.in_channel_of_descr fd
    and oc = Unix.out_channel_of_descr fd in
    output_string oc "{\"id\": 0, \"op\": \"fleet_status\"}\n";
    flush oc;
    (match input_line ic with
    | exception End_of_file ->
      Fmt.epr "tgdtool fleet: server closed without answering@.";
      exit 1
    | line -> (
      match Tgd_serve.Json.of_string line with
      | Error msg ->
        Fmt.epr "tgdtool fleet: unparsable response: %s@." msg;
        exit 1
      | Ok resp -> (
        match Tgd_serve.Json.member "result" resp with
        | Some result ->
          print_endline (Tgd_serve.Json.to_string result)
        | None ->
          (* a plain single-process server answers with an error —
             surface it verbatim so the caller sees why *)
          print_endline line;
          exit 1)));
    try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status" ~exits
         ~doc:"Query a running $(b,tgdtool serve --shards N) front-end with \
               the $(b,fleet_status) op and print the result object: shard \
               liveness and pids, quorum, degraded/breaker flags, respawn \
               and chaos-kill counts, and router counters.  Exit 1 when the \
               server is not a fleet.")
      Term.(const run $ socket_arg $ tcp_arg)
  in
  Cmd.group
    (Cmd.info "fleet"
       ~doc:"Inspect a running shard fleet ($(b,tgdtool serve --shards)).")
    [ status_cmd ]

(* ---- workload ---- *)

let workload_cmd =
  let family_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("layered", `Layered); ("layered-exist", `Layered_exist) ]))
          None
      & info [] ~docv:"FAMILY"
          ~doc:
            "$(b,layered) (guarded full rules, plain Datalog) or \
             $(b,layered-exist) (adds one existential sink rule per copy).")
  in
  let copies_arg =
    Arg.(
      value & opt int 16
      & info [ "copies" ] ~docv:"K" ~doc:"Independent gadget copies.")
  in
  let depth_arg =
    Arg.(
      value & opt int 4
      & info [ "depth" ] ~docv:"D" ~doc:"Layers per copy (3 rules each).")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the ontology here.")
  in
  let facts_arg =
    Arg.(
      value & opt (some string) None
      & info [ "facts" ] ~docv:"FILE"
          ~doc:"Also write a seed database (chase workload) to $(docv).")
  in
  let chain_arg =
    Arg.(
      value & opt int 40
      & info [ "chain" ] ~docv:"N"
          ~doc:"Seed facts per copy in the $(b,--facts) database.")
  in
  let run family copies depth out facts chain =
    let module Families = Tgd_workload.Families in
    let sigma =
      match family with
      | `Layered -> Families.layered ~copies ~depth
      | `Layered_exist -> Families.layered_existential ~copies ~depth
    in
    Tgd_parse.Print.to_file out (Tgd_parse.Print.tgds sigma ^ "\n");
    let schema = Rewrite.schema_of sigma in
    let n, m = Rewrite.class_bounds sigma in
    let bound =
      Tgd_core.Counting.guarded_candidates_bound schema ~n ~m
    in
    Fmt.pr "%s: %d rules over %d relations (9.2 candidate bound %s)@." out
      (List.length sigma)
      (List.length (Schema.relations schema))
      (Tgd_core.Bigint.to_string bound);
    Option.iter
      (fun path ->
        let inst = Families.layered_instance ~copies ~depth ~chain in
        let lines =
          Tgd_instance.Instance.fact_list inst
          |> List.map Tgd_parse.Print.fact
        in
        Tgd_parse.Print.to_file path (String.concat "\n" lines ^ "\n");
        Fmt.pr "%s: %d seed facts@." path
          (Tgd_instance.Instance.fact_count inst))
      facts
  in
  Cmd.v
    (Cmd.info "workload" ~exits
       ~doc:"Generate a scalable benchmark ontology (and optional seed \
             database) in surface syntax — the fixtures under data/gen_*.dlp \
             come from here.")
    Term.(
      const run $ family_arg $ copies_arg $ depth_arg $ out_arg $ facts_arg
      $ chain_arg)

let main =
  Cmd.group
    (Cmd.info "tgdtool" ~version:"1.0.0"
       ~doc:"Model-theoretic characterizations of rule-based ontologies (PODS'21) — toolkit.")
    [ classify_cmd; chase_cmd; entails_cmd; rewrite_cmd; properties_cmd;
      synthesize_cmd; count_cmd; diagnose_cmd; theory_cmd; datalog_cmd;
      core_cmd; acyclic_cmd; refute_cmd; analyze_cmd; certcheck_cmd;
      checkpoint_cmd; serve_cmd; loadgen_cmd; fleet_cmd; workload_cmd ]

let () = exit (Cmd.eval main)
