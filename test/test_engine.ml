(* The semi-naive engine: Fact_index and Memo units, plus differential
   tests of the engine-backed chase against the snapshot-rescan reference
   loop ([~naive:true]). *)

open Tgd_syntax
open Tgd_instance
open Tgd_engine
open Tgd_chase
open Tgd_workload
open Helpers

let s = schema [ ("E", 2); ("P", 1); ("T", 1) ]

(* ---- Fact_index ---- *)

let rel name = Option.get (Schema.find s name)
let fact r cs = Fact.make (rel r) (List.map c cs)

(* The index speaks interned ids: [tuple idx ["a"; "b"]] interns the
   constants, and [facts_of idx r ids] reads facts back at the boundary. *)
let tuple idx cs = Array.of_list (List.map (fun x -> Fact_index.intern idx (c x)) cs)
let index_rel idx r = Fact_index.relation idx (rel r)

let facts_of idx r ids =
  let record = index_rel idx r in
  List.map
    (fun id ->
      Fact_index.to_fact idx record
        (Array.init (Relation.arity (rel r)) (Fact_index.arg record id)))
    ids

let range lo hi = List.init (hi - lo) (fun i -> lo + i)

let facts_equal xs ys =
  List.length xs = List.length ys && List.for_all2 Fact.equal xs ys

let test_index_add_lookup () =
  let idx = Fact_index.create () in
  let e = index_rel idx "E" in
  check_bool "fresh insert" true (Fact_index.add idx e ~round:0 (tuple idx [ "a"; "b" ]));
  check_bool "duplicate rejected" false
    (Fact_index.add idx e ~round:3 (tuple idx [ "a"; "b" ]));
  check_bool "first stamp wins" true
    (Fact_index.mem_up_to idx e ~up_to:0 (tuple idx [ "a"; "b" ]));
  ignore (Fact_index.add idx e ~round:1 (tuple idx [ "a"; "c" ]));
  ignore (Fact_index.add idx e ~round:2 (tuple idx [ "b"; "c" ]));
  check_int "fact count" 3 (Fact_index.fact_count idx);
  let bucket pos x =
    let ids, n = Fact_index.lookup idx e ~up_to:max_int ~pos (Fact_index.intern idx (c x)) in
    facts_of idx "E" (List.init n (fun i -> ids.(i)))
  in
  check_bool "bucket E(a,_)" true
    (facts_equal (bucket 0 "a") [ fact "E" [ "a"; "b" ]; fact "E" [ "a"; "c" ] ]);
  check_bool "bucket E(_,c)" true
    (facts_equal (bucket 1 "c") [ fact "E" [ "a"; "c" ]; fact "E" [ "b"; "c" ] ]);
  check_int "empty bucket" 0 (List.length (bucket 0 "z"));
  check_bool "interning is stable" true
    (Constant.equal (c "a") (Fact_index.constant idx (Fact_index.intern idx (c "a"))))

let test_index_round_bounds () =
  let idx = Fact_index.create () in
  let e = index_rel idx "E" in
  ignore (Fact_index.add idx e ~round:0 (tuple idx [ "a"; "b" ]));
  ignore (Fact_index.add idx e ~round:1 (tuple idx [ "a"; "c" ]));
  ignore (Fact_index.add idx e ~round:2 (tuple idx [ "a"; "d" ]));
  let a = Fact_index.intern idx (c "a") in
  let count up_to = snd (Fact_index.lookup idx e ~up_to ~pos:0 a) in
  check_int "snapshot at 0" 1 (count 0);
  check_int "snapshot at 1" 2 (count 1);
  check_int "live view" 3 (count max_int);
  check_int "relation snapshot at 1" 2 (Fact_index.all idx e ~up_to:1);
  check_int "rel_size ignores bounds" 3 (Fact_index.rel_size e);
  check_int "selectivity estimate" 3 (Fact_index.bucket_size e ~pos:0 a)

(* The round barrier: [commit] hands each relation the facts added since
   the previous commit as a range of fact ids in insertion order, and the
   relation's facts read as if they had been inserted into an index that
   never committed. *)
let test_index_commit_insertion_order () =
  let fs =
    [ fact "E" [ "a"; "b" ]; fact "P" [ "a" ]; fact "E" [ "a"; "c" ];
      fact "T" [ "b" ]; fact "E" [ "b"; "c" ]; fact "P" [ "b" ] ]
  in
  let add_all idx =
    List.iter
      (fun f ->
        ignore
          (Fact_index.add idx
             (Fact_index.relation idx (Fact.rel f))
             ~round:0
             (Array.map (Fact_index.intern idx) (Fact.tuple_arr f))))
      fs
  in
  let delta idx r =
    let lo, hi = Fact_index.delta (index_rel idx r) in
    facts_of idx r (range lo hi)
  in
  let all idx r =
    facts_of idx r (range 0 (Fact_index.all idx (index_rel idx r) ~up_to:max_int))
  in
  let idx = Fact_index.create () in
  add_all idx;
  Fact_index.commit idx;
  check_bool "E group in insertion order" true
    (facts_equal (delta idx "E")
       [ fact "E" [ "a"; "b" ]; fact "E" [ "a"; "c" ]; fact "E" [ "b"; "c" ] ]);
  check_bool "P group in insertion order" true
    (facts_equal (delta idx "P") [ fact "P" [ "a" ]; fact "P" [ "b" ] ]);
  (* committed buckets = a never-committed index fed the same sequence *)
  let seq_idx = Fact_index.create () in
  add_all seq_idx;
  check_bool "merged E bucket = sequential" true
    (facts_equal (all idx "E") (all seq_idx "E"));
  (* the next round's facts are visible at once and read after the
     committed ones, preserving global insertion order *)
  let e = index_rel idx "E" in
  ignore (Fact_index.add idx e ~round:1 (tuple idx [ "c"; "d" ]));
  check_bool "pending fact visible before commit" true
    (Fact_index.mem_up_to idx e ~up_to:max_int (tuple idx [ "c"; "d" ]));
  check_bool "base-then-delta preserves order" true
    (facts_equal (all idx "E")
       [ fact "E" [ "a"; "b" ]; fact "E" [ "a"; "c" ]; fact "E" [ "b"; "c" ];
         fact "E" [ "c"; "d" ] ]);
  Fact_index.commit idx;
  check_bool "second commit carries only the new round" true
    (facts_equal (delta idx "E") [ fact "E" [ "c"; "d" ] ] && delta idx "P" = []);
  check_int "count spans both rounds" 7 (Fact_index.fact_count idx)

let test_index_counts_probes () =
  let stats = Stats.create () in
  let idx = Fact_index.create ~stats () in
  let p = index_rel idx "P" in
  ignore (Fact_index.add idx p ~round:0 (tuple idx [ "a" ]));
  let a = Fact_index.intern idx (c "a") in
  ignore (Fact_index.lookup idx p ~up_to:max_int ~pos:0 a);
  ignore (Fact_index.all idx p ~up_to:max_int);
  ignore (Fact_index.bucket_size p ~pos:0 a);
  check_int "two probes" 2 stats.Stats.probes;
  check_bool "ground membership" true (Fact_index.mem_up_to idx p ~up_to:0 [| a |]);
  check_int "a membership test is one probe" 3 stats.Stats.probes

(* ---- Memo ---- *)

(* The facts a run derived on top of its input are a suffix of each
   relation's ids, read without booking a probe — so reading it to build
   the result cannot move the pinned work counters. *)
let test_index_derived_range () =
  let stats = Stats.create () in
  let idx = Fact_index.create ~stats () in
  let e = index_rel idx "E" and p = index_rel idx "P" in
  ignore (Fact_index.add idx e ~round:0 (tuple idx [ "a"; "b" ]));
  ignore (Fact_index.add idx e ~round:0 (tuple idx [ "b"; "c" ]));
  Fact_index.commit idx;
  check_bool "input only: empty derived range" true (Fact_index.derived e = (2, 2));
  check_bool "empty relation: empty range" true (Fact_index.derived p = (0, 0));
  ignore (Fact_index.add idx e ~round:1 (tuple idx [ "a"; "c" ]));
  ignore (Fact_index.add idx e ~round:1 (tuple idx [ "a"; "b" ]));
  ignore (Fact_index.add idx p ~round:2 (tuple idx [ "a" ]));
  ignore (Fact_index.add idx e ~round:2 (tuple idx [ "c"; "d" ]));
  let derived r =
    let lo, hi = Fact_index.derived (index_rel idx r) in
    List.map (Fact_index.fact idx (index_rel idx r)) (range lo hi)
  in
  check_bool "E: the suffix after the input, in insertion order" true
    (Fact_index.derived e = (2, 4)
    && facts_equal (derived "E") [ fact "E" [ "a"; "c" ]; fact "E" [ "c"; "d" ] ]);
  check_bool "P: no input, so the whole relation" true
    (Fact_index.derived p = (0, 1) && facts_equal (derived "P") [ fact "P" [ "a" ] ]);
  let records = List.map Fact_index.rel_relation (Fact_index.relations idx) in
  check_bool "relation records" true
    (List.sort Relation.compare records = [ rel "E"; rel "P" ]);
  check_int "reading the derived range books no probe" 0 stats.Stats.probes

let test_memo_find_or_add () =
  let m : int Memo.t = Memo.create ~name:"t" () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  check_int "computed" 42 (Memo.find_or_add m "k" compute);
  check_int "cached" 42 (Memo.find_or_add m "k" compute);
  check_int "compute ran once" 1 !calls;
  check_int "one hit" 1 (Memo.stats m).Stats.memo_hits;
  check_int "one miss" 1 (Memo.stats m).Stats.memo_misses;
  Memo.clear m;
  check_int "cleared" 0 (Memo.size m)

let test_memo_tgd_key_renaming () =
  let a = tgd "E(x,y), E(y,z) -> E(x,z)." in
  let b = tgd "E(v,u), E(u,w) -> E(v,w)." in
  Alcotest.(check string)
    "renamed tgds share a key" (Memo.tgd_key a) (Memo.tgd_key b);
  let d = tgd "E(x,y) -> E(y,x)." in
  check_bool "different tgds differ" false
    (String.equal (Memo.tgd_key a) (Memo.tgd_key d))

let test_memo_body_key () =
  let body t = Tgd.body t in
  let a = body (tgd "E(x,y), P(y) -> T(x).") in
  let b = body (tgd "P(v), E(u,v) -> T(u).") in
  Alcotest.(check string)
    "reordered+renamed bodies share a key" (Memo.body_key a) (Memo.body_key b);
  let canonical, renaming, _ = Memo.body_canonical a in
  let renamed = List.map (Atom.rename renaming) a in
  check_bool "renaming rebuilds the canonical form (as a set)" true
    (Atom.Set.equal (Atom.Set.of_list canonical) (Atom.Set.of_list renamed))

let test_memo_sigma_key () =
  let t1 = tgd "E(x,y) -> P(x)." in
  let t2 = tgd "P(x) -> T(x)." in
  Alcotest.(check string)
    "order-independent" (Memo.sigma_key [ t1; t2 ]) (Memo.sigma_key [ t2; t1 ]);
  Alcotest.(check string)
    "duplication-independent" (Memo.sigma_key [ t1; t2 ])
    (Memo.sigma_key [ t1; t2; t1 ])

(* ---- engine vs naive chase (deterministic differentials) ---- *)

(* Both restricted chases terminated on the same input: the results are
   universal models, hence homomorphically equivalent fixing the database
   constants. *)
let check_restricted_equivalent name sigma db =
  let e = Chase.restricted sigma db in
  let n = Chase.restricted ~naive:true sigma db in
  check_bool (name ^ ": engine terminated") true (Chase.is_model e);
  check_bool (name ^ ": naive terminated") true (Chase.is_model n);
  let fixed = Instance.adom db in
  check_bool
    (name ^ ": hom-equivalent over the database")
    true
    (Hom.embeds_fixing fixed e.Chase.instance n.Chase.instance
    && Hom.embeds_fixing fixed n.Chase.instance e.Chase.instance)

let test_differential_full () =
  (* full tgds: unique least fixpoint, so the instances agree exactly *)
  let sigma = Families.transitive_closure in
  let db = Families.cycle 5 in
  let e = Chase.restricted sigma db in
  let n = Chase.restricted ~naive:true sigma db in
  check_bool "equal fixpoints" true
    (Instance.equal_facts e.Chase.instance n.Chase.instance);
  check_int "same fired count" n.Chase.fired e.Chase.fired

let test_differential_families () =
  check_restricted_equivalent "guarded_rewritable"
    (Families.guarded_rewritable 3)
    (Families.clique 3);
  check_restricted_equivalent "existential_chain"
    (Families.existential_chain 4)
    (inst ~schema:(Families.chain_schema 4) "E0(a,b).");
  check_restricted_equivalent "dl_lite_roles"
    (Families.dl_lite_roles 3)
    (Families.clique 2)

let test_differential_oblivious () =
  let sigma = Families.transitive_closure in
  let db = Families.cycle 4 in
  let e = Chase.oblivious sigma db in
  let n = Chase.oblivious ~naive:true sigma db in
  check_bool "engine terminated" true (Chase.is_model e);
  check_bool "naive terminated" true (Chase.is_model n);
  check_bool "equal fixpoints" true
    (Instance.equal_facts e.Chase.instance n.Chase.instance);
  check_int "same fired count" n.Chase.fired e.Chase.fired

let test_differential_budget () =
  (* diverging chase: both paths must report exhaustion *)
  let sigma = [ tgd "E(x,y) -> exists z. E(y,z)." ] in
  let db = inst ~schema:s "E(a,b)." in
  let budget = Tgd_engine.Budget.limits ~rounds:5 ~facts:20_000 in
  let e = Chase.restricted ~budget sigma db in
  let n = Chase.restricted ~naive:true ~budget sigma db in
  check_bool "engine exhausted" false (Chase.is_model e);
  check_bool "naive exhausted" false (Chase.is_model n);
  check_int "same rounds" n.Chase.rounds e.Chase.rounds;
  check_int "same growth" (Instance.fact_count n.Chase.instance)
    (Instance.fact_count e.Chase.instance)

let test_engine_stats_populated () =
  let sigma = Families.transitive_closure in
  let db = Families.cycle 4 in
  let e = Chase.restricted sigma db in
  check_bool "engine probes the index" true (e.Chase.stats.Stats.probes > 0);
  let n = Chase.restricted ~naive:true sigma db in
  check_int "naive never probes" 0 n.Chase.stats.Stats.probes;
  check_bool "naive scans instead" true (n.Chase.stats.Stats.scans > 0)

(* ---- fire-phase semantics pinned across engine refactors ---- *)

(* The fact cap trips on the first fire that pushes the instance past
   [max_facts]; that fire's facts are kept, nothing after it runs. *)
let test_fact_cap_partial_instance () =
  let sigma = [ tgd "P(x) -> exists z, w. E(x,z), E(x,w)." ] in
  let db = inst ~schema:s "P(a). P(b). P(c)." in
  let budget = Tgd_engine.Budget.limits ~rounds:64 ~facts:4 in
  let r = Seminaive.run ~mode:Seminaive.Restricted ~budget sigma db in
  check_bool "truncated on the fact cap" true
    (r.Seminaive.outcome = Seminaive.Truncated Tgd_engine.Budget.Facts);
  check_int "one fire" 1 r.Seminaive.fired;
  let e x y = Fact.make (rel "E") [ x; y ] in
  let expected =
    Instance.of_facts s
      [ fact "P" [ "a" ]; fact "P" [ "b" ]; fact "P" [ "c" ];
        e (c "a") (Constant.null 1); e (c "a") (Constant.null 2) ]
  in
  check_int "exactly five facts" 5 (Instance.fact_count r.Seminaive.instance);
  check_bool "the first trigger's facts" true
    (Instance.equal_facts expected r.Seminaive.instance)

(* A constant of the input domain that occurs in no fact survives the
   chase, and the engine agrees with the naive loop on facts and domain. *)
let test_dom_only_constant_survives () =
  let sigma = [ tgd "E(x,y) -> E(y,x)."; tgd "E(x,y) -> P(x)." ] in
  let db = Instance.of_facts ~dom:[ c "d" ] s [ fact "E" [ "a"; "b" ] ] in
  let r = Seminaive.run ~mode:Seminaive.Restricted sigma db in
  check_bool "terminated" true (r.Seminaive.outcome = Seminaive.Terminated);
  check_bool "dom-only constant kept" true
    (Constant.Set.mem (c "d") (Instance.dom r.Seminaive.instance));
  let e = Chase.restricted sigma db in
  let n = Chase.restricted ~naive:true sigma db in
  check_bool "engine = naive (facts and domain)" true
    (Instance.equal e.Chase.instance n.Chase.instance);
  check_bool "engine = Seminaive.run" true
    (Instance.equal e.Chase.instance r.Seminaive.instance)

(* A head relation the instance's schema lacks is a caller error. *)
let test_head_outside_schema_raises () =
  let sigma = [ tgd "P(x) -> Q(x)." ] in
  let db = inst ~schema:s "P(a)." in
  check_bool "Invalid_argument" true
    (match Seminaive.run ~mode:Seminaive.Restricted sigma db with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Each round hands [on_commit] the facts it derived in insertion order —
   the order triggers fired in, not the instance's sorted order — which is
   what keeps delta-log records byte-identical across engine changes. *)
let test_commit_insertion_order () =
  let sigma = [ tgd "P(x) -> T(x)."; tgd "P(x) -> E(x,x)." ] in
  let db = inst ~schema:s "P(a). P(b)." in
  let rounds = ref [] in
  let on_commit ~round ~fired:_ dflat = rounds := (round, dflat) :: !rounds in
  let r = Seminaive.run ~mode:Seminaive.Restricted ~on_commit sigma db in
  check_bool "terminated" true (r.Seminaive.outcome = Seminaive.Terminated);
  match List.rev !rounds with
  | [ (1, first); (2, []) ] ->
    check_bool "flat delta in insertion order" true
      (facts_equal first
         [ fact "T" [ "a" ]; fact "T" [ "b" ]; fact "E" [ "a"; "a" ];
           fact "E" [ "b"; "b" ] ])
  | _ -> Alcotest.fail "expected one productive round and one empty one"

(* With a hook, the fire phase builds each new fact; without one, it only
   inserts ids.  A no-op [on_fire] and [on_commit] must change neither the
   answer nor the work counters, also on a truncated run. *)
let test_hooks_do_not_change_answer () =
  let sigma = Families.layered_existential ~copies:2 ~depth:3 in
  let db = Families.layered_instance ~copies:2 ~depth:3 ~chain:6 in
  let work (st : Stats.t) =
    Stats.(st.probes, st.scans, st.fired, st.rounds, st.delta_facts)
  in
  List.iter
    (fun (mode, name) ->
      List.iter
        (fun (budget, bname) ->
          let plain = Seminaive.run ~mode ~budget:(budget ()) sigma db in
          let hooked =
            Seminaive.run ~mode ~budget:(budget ())
              ~on_fire:(fun _ _ _ -> ())
              ~on_commit:(fun ~round:_ ~fired:_ _ -> ())
              sigma db
          in
          let what = name ^ ", " ^ bname in
          check_bool (what ^ ": same outcome") true
            (plain.Seminaive.outcome = hooked.Seminaive.outcome);
          check_bool (what ^ ": same instance") true
            (Instance.equal plain.Seminaive.instance hooked.Seminaive.instance);
          check_bool (what ^ ": same work counters") true
            (work plain.Seminaive.stats = work hooked.Seminaive.stats))
        [ ((fun () -> Budget.default), "default budget");
          ((fun () -> Budget.limits ~rounds:64 ~facts:100), "fact cap") ])
    [ (Seminaive.Restricted, "restricted");
      (Seminaive.Oblivious, "oblivious");
      (Seminaive.Skolem, "Skolem") ]

(* ---- exact work counters at jobs 1 ---- *)

(* fired / rounds / probes / scans.  These repeat exactly run to run, so a
   change to matching, join order or activity checks that adds or saves a
   single probe shows here, where a timing bound cannot see it. *)
let counters (st : Stats.t) =
  Printf.sprintf "fired %d, rounds %d, probes %d, scans %d" st.Stats.fired
    st.Stats.rounds st.Stats.probes st.Stats.scans

let check_counters name expected st =
  Alcotest.(check string) name expected (counters st)

let chase_counters ~copies ~depth ~chain =
  let sigma = Families.layered_existential ~copies ~depth in
  let db = Families.layered_instance ~copies ~depth ~chain in
  let r = Chase.restricted sigma db in
  check_bool "terminated" true (Chase.is_model r);
  r.Chase.stats

let test_counters_chase_layered () =
  check_counters "copies 16, depth 4, chain 24"
    "fired 4992, rounds 6, probes 7888, scans 4992"
    (chase_counters ~copies:16 ~depth:4 ~chain:24);
  check_counters "copies 2, depth 3, chain 6"
    "fired 120, rounds 5, probes 200, scans 120"
    (chase_counters ~copies:2 ~depth:3 ~chain:6)

let test_counters_g_to_l () =
  Entailment.clear_memos ();
  Chase.clear_memo ();
  let d = Tgd_core.Rewrite.default_config in
  let config =
    { d with
      Tgd_core.Rewrite.caps =
        { d.Tgd_core.Rewrite.caps with Tgd_core.Candidates.max_head_atoms = 1 }
    }
  in
  match
    Tgd_core.Rewrite.g_to_l ~config (Families.layered ~copies:4 ~depth:3)
  with
  | Budget.Complete report ->
    check_counters "layered, copies 4, depth 3"
      "fired 1224, rounds 488, probes 19668, scans 2532"
      report.Tgd_core.Rewrite.stats
  | Budget.Truncated _ -> Alcotest.fail "the sweep was truncated"

(* ---- memoized entailment ---- *)

let test_entailment_memo_hits () =
  Entailment.clear_memos ();
  let sigma = Families.transitive_closure in
  let goal = tgd "E(x,y), E(y,z), E(z,w) -> E(x,w)." in
  let renamed = tgd "E(p,q), E(q,r), E(r,t) -> E(p,t)." in
  check_answer "proved" Tgd_chase.Entailment.Proved (Entailment.entails sigma goal);
  check_answer "renamed query proved" Tgd_chase.Entailment.Proved
    (Entailment.entails sigma renamed);
  let answers, chases = Entailment.memo_sizes () in
  check_int "one answer entry despite two queries" 1 answers;
  check_int "one cached chase" 1 chases;
  Entailment.clear_memos ()

let test_entailment_shared_body_chase () =
  Entailment.clear_memos ();
  let sigma = [ tgd "E(x,y) -> P(x)."; tgd "E(x,y) -> T(y)." ] in
  (* three candidates over one body: the chase level should run once *)
  let candidates =
    [ tgd "E(x,y) -> P(x)."; tgd "E(x,y) -> T(y)."; tgd "E(x,y) -> P(y)." ]
  in
  let proved, rest = Entailment.entailed_subset sigma candidates in
  check_int "two entailed" 2 (List.length proved);
  check_int "one rejected" 1 (List.length rest);
  let _, chases = Entailment.memo_sizes () in
  check_int "single chase for the shared body" 1 chases;
  Entailment.clear_memos ()

let test_entailment_memo_off_matches () =
  let sigma = Families.guarded_rewritable 2 in
  let goal = tgd "R(x,y) -> P(x)." in
  let a = Entailment.entails ~memo:false sigma goal in
  let b = Entailment.entails ~memo:false ~naive:true sigma goal in
  check_answer "memoless engine = memoless naive" a b

(* ---- qcheck differentials ---- *)

let s2 = Schema.of_pairs [ ("E", 2); ("P", 1) ]

let gen_full_sigma : Tgd.t list QCheck.Gen.t =
 fun st ->
  List.init
    (1 + Random.State.int st 2)
    (fun _ -> Gen.random_full_tgd st s2 ~n:3 ~body_atoms:2 ~head_atoms:1)

let gen_instance : Instance.t QCheck.Gen.t =
 fun st ->
  Gen.random_instance st s2
    ~dom_size:(1 + Random.State.int st 3)
    ~density:(Random.State.float st 0.8)

let arb_full_case =
  QCheck.make
    ~print:(fun (sigma, i) ->
      String.concat " ;; " (List.map Tgd.to_string sigma)
      ^ " @ " ^ Instance.to_string i)
    (QCheck.Gen.pair gen_full_sigma gen_instance)

let prop_differential_full_qcheck =
  QCheck.Test.make
    ~name:"engine chase = naive chase (random full Σ, exact)" ~count:150
    arb_full_case (fun (sigma, i) ->
      let e = Chase.restricted sigma i in
      let n = Chase.restricted ~naive:true sigma i in
      Chase.is_model e && Chase.is_model n
      && Instance.equal_facts e.Chase.instance n.Chase.instance)

let gen_mixed_sigma : Tgd.t list QCheck.Gen.t =
 fun st ->
  Gen.random_full_tgd st s2 ~n:3 ~body_atoms:2 ~head_atoms:1
  :: List.init (Random.State.int st 2) (fun _ ->
         Gen.random_linear_tgd st s2 ~n:2 ~m:1)

let arb_mixed_case =
  QCheck.make
    ~print:(fun (sigma, i) ->
      String.concat " ;; " (List.map Tgd.to_string sigma)
      ^ " @ " ^ Instance.to_string i)
    (QCheck.Gen.pair gen_mixed_sigma gen_instance)

let prop_differential_mixed_qcheck =
  QCheck.Test.make
    ~name:"engine chase ≈ naive chase (random Σ, hom-equivalent)" ~count:100
    arb_mixed_case (fun (sigma, i) ->
      let e = Chase.restricted sigma i in
      let n = Chase.restricted ~naive:true sigma i in
      QCheck.assume (Chase.is_model e && Chase.is_model n);
      let fixed = Instance.adom i in
      Hom.embeds_fixing fixed e.Chase.instance n.Chase.instance
      && Hom.embeds_fixing fixed n.Chase.instance e.Chase.instance)

(* Slot-unification edge cases: a small variable pool repeats variables
   inside atoms ([E(x,x)]), [Z] is 0-ary, and [U] never occurs in an input
   (it may still be derived), so some rules start with an empty body
   relation.  Bodies may be empty too. *)
let s3 = Schema.of_pairs [ ("E", 2); ("P", 1); ("Z", 0); ("U", 1) ]
let rels3 = Array.of_list (Schema.relations s3)

let gen_edge_tgd ~existential : Tgd.t QCheck.Gen.t =
 fun st ->
  let atom pool =
    let r = rels3.(Random.State.int st (Array.length rels3)) in
    Atom.make r
      (List.init (Relation.arity r) (fun _ ->
           Term.var (List.nth pool (Random.State.int st (List.length pool)))))
  in
  let rec attempt () =
    let body = List.init (Random.State.int st 3) (fun _ -> atom [ v "x"; v "y" ]) in
    let universal = List.concat_map Atom.var_list body in
    let pool =
      if existential then v "w" :: universal
      else if universal = [] then [ v "x" ]
      else universal
    in
    let head = List.init (1 + Random.State.int st 2) (fun _ -> atom pool) in
    match Tgd.make ~body ~head with
    | t when existential || Variable.Set.is_empty (Tgd.existential_vars t) -> t
    | _ -> attempt ()
    | exception Invalid_argument _ -> attempt ()
  in
  attempt ()

let gen_edge_instance : Instance.t QCheck.Gen.t =
 fun st ->
  let dom = [ c "a"; c "b"; c "c" ] in
  let density = Random.State.float st 0.6 in
  let keep f = if Random.State.float st 1.0 < density then [ f ] else [] in
  let rel name = Option.get (Schema.find s3 name) in
  Instance.of_facts s3
    (keep (Fact.make (rel "Z") [])
    @ List.concat_map (fun x -> keep (Fact.make (rel "P") [ x ])) dom
    @ List.concat_map
        (fun x -> List.concat_map (fun y -> keep (Fact.make (rel "E") [ x; y ])) dom)
        dom)

let arb_edge ~existential =
  QCheck.make
    ~print:(fun (sigma, i) ->
      String.concat " ;; " (List.map Tgd.to_string sigma)
      ^ " @ " ^ Instance.to_string i)
    (QCheck.Gen.pair
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) (gen_edge_tgd ~existential))
       gen_edge_instance)

let prop_edge_restricted_full =
  QCheck.Test.make
    ~name:"engine chase = naive chase (repeated vars, 0-ary, empty relations)"
    ~count:200 (arb_edge ~existential:false) (fun (sigma, i) ->
      let e = Chase.restricted sigma i in
      let n = Chase.restricted ~naive:true sigma i in
      Chase.is_model e && Chase.is_model n
      && Instance.equal e.Chase.instance n.Chase.instance)

let prop_edge_restricted_existential =
  QCheck.Test.make
    ~name:"engine chase ≈ naive chase (edge cases with existentials)" ~count:150
    (arb_edge ~existential:true) (fun (sigma, i) ->
      let budget = Budget.limits ~rounds:6 ~facts:2_000 in
      let e = Chase.restricted ~budget sigma i in
      let n = Chase.restricted ~naive:true ~budget sigma i in
      QCheck.assume (Chase.is_model e && Chase.is_model n);
      let fixed = Instance.adom i in
      Hom.embeds_fixing fixed e.Chase.instance n.Chase.instance
      && Hom.embeds_fixing fixed n.Chase.instance e.Chase.instance)

(* Every trigger of a full Σ fires exactly once under the oblivious chase,
   so [on_fire] must observe the same (rule, body homomorphism, head facts)
   events on both paths, in whatever order. *)
let prop_edge_on_fire =
  let events run =
    let seen = ref [] in
    let on_fire tr facts =
      seen :=
        Fmt.str "%a | %a | %a" Tgd.pp tr.Trigger.tgd Binding.pp tr.Trigger.hom
          Fmt.(list ~sep:(any " ") Fact.pp)
          facts
        :: !seen
    in
    let r = run on_fire in
    (r, List.sort String.compare !seen)
  in
  QCheck.Test.make ~name:"on_fire: engine events = naive events (oblivious, full Σ)"
    ~count:200 (arb_edge ~existential:false) (fun (sigma, i) ->
      let e, ee = events (fun on_fire -> Chase.oblivious ~on_fire sigma i) in
      let n, ne =
        events (fun on_fire -> Chase.oblivious ~naive:true ~on_fire sigma i)
      in
      Chase.is_model e && Chase.is_model n
      && e.Chase.fired = n.Chase.fired
      && List.equal String.equal ee ne)

(* Rules equal under [Tgd.equal] share fired keys: repeating rules of Σ
   changes neither the facts, nor the nulls, nor the firing count of the
   oblivious and Skolem chases. *)
let prop_edge_duplicate_rules =
  QCheck.Test.make ~name:"duplicate rules fire once (oblivious and Skolem)"
    ~count:200 (arb_edge ~existential:true) (fun (sigma, i) ->
      let doubled = sigma @ List.rev sigma in
      let budget = Budget.limits ~rounds:4 ~facts:2_000 in
      List.for_all
        (fun mode ->
          let a = Seminaive.run ~mode ~budget sigma i in
          let b = Seminaive.run ~mode ~budget doubled i in
          a.Seminaive.fired = b.Seminaive.fired
          && a.Seminaive.outcome = b.Seminaive.outcome
          && Instance.equal a.Seminaive.instance b.Seminaive.instance)
        [ Seminaive.Oblivious; Seminaive.Skolem ])

(* The result is the input plus exactly the facts the run inserted, and
   its domain is the input's plus the constants of those facts: the nulls
   of a trigger that never landed (an [on_fire] halting after null
   invention) stay out.  Checked in every mode, at jobs 1 and 2, for
   every way a run stops.  [on_fire] records the head facts of every fire
   it lets through, which are the facts inserted plus some already
   present; the same run without hooks must agree wherever its schedule
   is deterministic (not under chaos at jobs 2).  [on_commit] must be
   handed every inserted fact, a faulted round's too: its batches add up
   to the result and to [Stats.delta_facts], and the last barrier saw the
   run's final fired count. *)
type stop = Saturate | Fact_cap | Fuel | Round_cap | Fire_fault | Halt_after_nulls

let run_until stop ~k ~seed ~mode ~pool ~hooked sigma i =
  let budget =
    match stop with
    | Fact_cap -> Budget.limits ~rounds:6 ~facts:(Instance.fact_count i + k)
    | Fuel -> Budget.make ~rounds:6 ~facts:2_000 ~fuel:k ()
    | Round_cap -> Budget.limits ~rounds:(1 + (k mod 2)) ~facts:2_000
    | Saturate | Fire_fault | Halt_after_nulls -> Budget.limits ~rounds:6 ~facts:2_000
  in
  let recorded = ref Fact.Set.empty and fires = ref 0 in
  let has_null f = Array.exists Constant.is_null (Fact.tuple_arr f) in
  let on_fire _ _ facts =
    if stop = Halt_after_nulls && !fires >= k && List.exists has_null facts then
      raise Seminaive.Halt;
    incr fires;
    recorded := Fact.Set.union (Fact.Set.of_list facts) !recorded
  in
  let committed = ref Fact.Set.empty and batches = ref 0 and last_fired = ref 0 in
  let on_commit ~round:_ ~fired facts =
    committed := Fact.Set.union (Fact.Set.of_list facts) !committed;
    batches := !batches + List.length facts;
    last_fired := fired
  in
  let on_fire, on_commit =
    if hooked then (Some on_fire, Some on_commit) else (None, None)
  in
  let go () = Seminaive.run ~mode ~budget ?pool ?on_fire ?on_commit sigma i in
  let r =
    if stop = Fire_fault then
      Chaos.with_config { Chaos.default_config with Chaos.seed; raise_p = 0.15 } go
    else go ()
  in
  let commits_agree =
    Fact.Set.equal (Instance.facts r.Seminaive.instance)
      (Fact.Set.union (Instance.facts i) !committed)
    && !batches = r.Seminaive.stats.Stats.delta_facts
    && !last_fired = r.Seminaive.fired
  in
  (r, !recorded, commits_agree)

let prop_result_from_index =
  let exact_domain i r =
    Constant.Set.equal (Instance.dom r)
      (Constant.Set.union (Instance.dom i) (Instance.adom r))
  in
  let agrees stop ~k ~seed ~mode ~jobs sigma i =
    let pool = if jobs = 1 then None else Some (Pool.warm ~jobs ()) in
    let run = run_until stop ~k ~seed ~mode ~pool sigma i in
    let r, recorded, commits_agree = run ~hooked:true in
    let res = r.Seminaive.instance in
    Fact.Set.equal (Instance.facts res) (Fact.Set.union (Instance.facts i) recorded)
    && commits_agree
    && exact_domain i res
    && (stop = Halt_after_nulls
       ||
       let p, _, _ = run ~hooked:false in
       let plain = p.Seminaive.instance in
       exact_domain i plain
       && Instance.subset i plain
       && ((stop = Fire_fault && jobs > 1)
          || (p.Seminaive.outcome = r.Seminaive.outcome && Instance.equal plain res)))
  in
  QCheck.Test.make ~count:80
    ~name:"result = input ∪ inserted facts, exact domain (every stop, jobs 1, 2)"
    QCheck.(pair (arb_edge ~existential:true) (pair small_nat (int_range 0 4)))
    (fun ((sigma, i), (seed, k)) ->
      List.for_all
        (fun stop ->
          List.for_all
            (fun mode ->
              List.for_all
                (fun jobs -> agrees stop ~k ~seed ~mode ~jobs sigma i)
                [ 1; 2 ])
            [ Seminaive.Restricted; Seminaive.Oblivious; Seminaive.Skolem ])
        [ Saturate; Fact_cap; Fuel; Round_cap; Fire_fault; Halt_after_nulls ])

let suite =
  [ case "fact index: add and positional lookup" test_index_add_lookup;
    case "fact index: round-stamped snapshots" test_index_round_bounds;
    case "fact index: commit replays insertion order"
      test_index_commit_insertion_order;
    case "fact index: probe accounting" test_index_counts_probes;
    case "fact index: the derived range is a suffix read without probes"
      test_index_derived_range;
    case "memo: find_or_add caches and counts" test_memo_find_or_add;
    case "memo: tgd keys collapse renamings" test_memo_tgd_key_renaming;
    case "memo: body keys collapse reorderings" test_memo_body_key;
    case "memo: sigma keys are set-like" test_memo_sigma_key;
    case "differential: transitive closure (exact)" test_differential_full;
    case "differential: workload families" test_differential_families;
    case "differential: oblivious chase" test_differential_oblivious;
    case "differential: budget exhaustion agrees" test_differential_budget;
    case "stats: engine probes, naive scans" test_engine_stats_populated;
    case "fire: fact cap keeps the tripping fire's facts"
      test_fact_cap_partial_instance;
    case "fire: dom-only constants survive the chase"
      test_dom_only_constant_survives;
    case "fire: head relation outside the schema raises"
      test_head_outside_schema_raises;
    case "fire: on_commit hands facts over in insertion order"
      test_commit_insertion_order;
    case "fire: hooks change neither the answer nor the counters"
      test_hooks_do_not_change_answer;
    case "counters: layered chases at jobs 1" test_counters_chase_layered;
    case "counters: g_to_l on the layered family at jobs 1"
      test_counters_g_to_l;
    case "entailment: renamed queries share one chase" test_entailment_memo_hits;
    case "entailment: candidates share a body chase"
      test_entailment_shared_body_chase;
    case "entailment: memo off matches naive" test_entailment_memo_off_matches;
    QCheck_alcotest.to_alcotest prop_differential_full_qcheck;
    QCheck_alcotest.to_alcotest prop_differential_mixed_qcheck;
    QCheck_alcotest.to_alcotest prop_edge_restricted_full;
    QCheck_alcotest.to_alcotest prop_edge_restricted_existential;
    QCheck_alcotest.to_alcotest prop_edge_on_fire;
    QCheck_alcotest.to_alcotest prop_edge_duplicate_rules;
    QCheck_alcotest.to_alcotest prop_result_from_index
  ]
