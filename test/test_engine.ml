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

let test_index_add_lookup () =
  let idx = Fact_index.create () in
  check_bool "fresh insert" true (Fact_index.add idx ~round:0 (fact "E" [ "a"; "b" ]));
  check_bool "duplicate rejected" false
    (Fact_index.add idx ~round:3 (fact "E" [ "a"; "b" ]));
  check_int "first stamp wins" 0
    (Option.get (Fact_index.round_of idx (fact "E" [ "a"; "b" ])));
  ignore (Fact_index.add idx ~round:1 (fact "E" [ "a"; "c" ]));
  ignore (Fact_index.add idx ~round:2 (fact "E" [ "b"; "c" ]));
  check_int "fact count" 3 (Fact_index.fact_count idx);
  let e = rel "E" in
  check_int "bucket E(a,_)" 2
    (List.length (List.of_seq (Fact_index.lookup idx e ~pos:0 (c "a"))));
  check_int "bucket E(_,c)" 2
    (List.length (List.of_seq (Fact_index.lookup idx e ~pos:1 (c "c"))));
  check_int "empty bucket" 0
    (List.length (List.of_seq (Fact_index.lookup idx e ~pos:0 (c "z"))))

let test_index_round_bounds () =
  let idx = Fact_index.create () in
  ignore (Fact_index.add idx ~round:0 (fact "E" [ "a"; "b" ]));
  ignore (Fact_index.add idx ~round:1 (fact "E" [ "a"; "c" ]));
  ignore (Fact_index.add idx ~round:2 (fact "E" [ "a"; "d" ]));
  let e = rel "E" in
  let count up_to =
    List.length (List.of_seq (Fact_index.lookup idx ~up_to e ~pos:0 (c "a")))
  in
  check_int "snapshot at 0" 1 (count 0);
  check_int "snapshot at 1" 2 (count 1);
  check_int "live view" 3 (count max_int);
  check_int "rel_size ignores bounds" 3 (Fact_index.rel_size idx e);
  check_int "selectivity estimate" 3 (Fact_index.bucket_size idx e ~pos:0 (c "a"))

(* The round barrier: [commit] must replay delta entries in exact
   insertion order — the flat delta, the per-relation groups, and the
   merged base buckets all read as if the facts had been inserted into a
   single-layer index sequentially. *)
let test_index_commit_insertion_order () =
  let fs =
    [ fact "E" [ "a"; "b" ]; fact "P" [ "a" ]; fact "E" [ "a"; "c" ];
      fact "T" [ "b" ]; fact "E" [ "b"; "c" ]; fact "P" [ "b" ] ]
  in
  let facts_equal xs ys =
    List.length xs = List.length ys && List.for_all2 Fact.equal xs ys
  in
  let idx = Fact_index.create () in
  List.iter (fun f -> ignore (Fact_index.add idx ~round:0 f)) fs;
  let flat, by_rel = Fact_index.commit idx in
  check_bool "flat delta in insertion order" true (facts_equal flat fs);
  check_bool "E group in insertion order" true
    (facts_equal
       (Hashtbl.find by_rel (rel "E"))
       [ fact "E" [ "a"; "b" ]; fact "E" [ "a"; "c" ]; fact "E" [ "b"; "c" ] ]);
  check_bool "P group in insertion order" true
    (facts_equal (Hashtbl.find by_rel (rel "P"))
       [ fact "P" [ "a" ]; fact "P" [ "b" ] ]);
  (* merged buckets = a never-committed index fed the same sequence *)
  let seq_idx = Fact_index.create () in
  List.iter (fun f -> ignore (Fact_index.add seq_idx ~round:0 f)) fs;
  let all i r = List.of_seq (Fact_index.all i (rel r)) in
  check_bool "merged E bucket = sequential" true
    (facts_equal (all idx "E") (all seq_idx "E"));
  (* the next round's facts land in a fresh delta; lookups read base
     entries first, then pending ones, preserving global insertion order *)
  ignore (Fact_index.add idx ~round:1 (fact "E" [ "c"; "d" ]));
  check_bool "pending fact visible before commit" true
    (Fact_index.mem idx (fact "E" [ "c"; "d" ]));
  check_bool "base-then-delta preserves order" true
    (facts_equal (all idx "E")
       [ fact "E" [ "a"; "b" ]; fact "E" [ "a"; "c" ]; fact "E" [ "b"; "c" ];
         fact "E" [ "c"; "d" ] ]);
  let flat2, _ = Fact_index.commit idx in
  check_bool "second commit carries only the new round" true
    (facts_equal flat2 [ fact "E" [ "c"; "d" ] ]);
  check_int "count spans both layers" 7 (Fact_index.fact_count idx)

let test_index_counts_probes () =
  let stats = Stats.create () in
  let idx = Fact_index.create ~stats () in
  ignore (Fact_index.add idx ~round:0 (fact "P" [ "a" ]));
  let p = rel "P" in
  ignore (List.of_seq (Fact_index.lookup idx p ~pos:0 (c "a")));
  ignore (List.of_seq (Fact_index.all idx p));
  ignore (Fact_index.bucket_size idx p ~pos:0 (c "a"));
  check_int "two probes" 2 stats.Stats.probes

(* ---- Memo ---- *)

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
  let canonical, renaming = Memo.body_canonical a in
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

let suite =
  [ case "fact index: add and positional lookup" test_index_add_lookup;
    case "fact index: round-stamped snapshots" test_index_round_bounds;
    case "fact index: commit replays insertion order"
      test_index_commit_insertion_order;
    case "fact index: probe accounting" test_index_counts_probes;
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
    case "entailment: renamed queries share one chase" test_entailment_memo_hits;
    case "entailment: candidates share a body chase"
      test_entailment_shared_body_chase;
    case "entailment: memo off matches naive" test_entailment_memo_off_matches;
    QCheck_alcotest.to_alcotest prop_differential_full_qcheck;
    QCheck_alcotest.to_alcotest prop_differential_mixed_qcheck
  ]
