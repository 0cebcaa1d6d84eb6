open Tgd_syntax
open Tgd_core
open Helpers

let s_rpt = schema [ ("R", 1); ("P", 1); ("T", 1) ]
let s_e = schema [ ("E", 2) ]

let all_caps =
  Candidates.{ max_body_atoms = 10; max_head_atoms = 10; keep_tautologies = true }

let test_linear_membership () =
  Candidates.linear ~caps:Candidates.default_caps s_e ~n:2 ~m:1
  |> Seq.iter (fun t ->
         check_bool "linear" true (Tgd_class.is_linear t);
         check_bool "n ≤ 2" true (Tgd.n_universal t <= 2);
         check_bool "m ≤ 1" true (Tgd.m_existential t <= 1))

let test_guarded_membership () =
  Candidates.guarded ~caps:Candidates.default_caps s_rpt ~n:2 ~m:1
  |> Seq.iter (fun t ->
         check_bool "guarded" true (Tgd_class.is_guarded t);
         check_bool "n ≤ 2" true (Tgd.n_universal t <= 2);
         check_bool "m ≤ 1" true (Tgd.m_existential t <= 1))

let test_full_membership () =
  Candidates.full ~caps:Candidates.default_caps s_e ~n:2
  |> Seq.iter (fun t -> check_bool "full" true (Tgd_class.is_full t))

let test_frontier_guarded_membership () =
  Candidates.frontier_guarded ~caps:Candidates.default_caps s_e ~n:2 ~m:1
  |> Seq.iter (fun t -> check_bool "fg" true (Tgd_class.is_frontier_guarded t))

let test_no_duplicates_modulo_renaming () =
  let l = List.of_seq (Candidates.linear ~caps:all_caps s_rpt ~n:1 ~m:1) in
  let deduped = Canonical.dedup l in
  check_int "already canonical" (List.length l) (List.length deduped)

let test_exhaustive_small_case () =
  (* unary schema {R,P,T}, n=1, m=0, with tautologies: bodies R(x)/P(x)/T(x),
     heads = non-empty subsets of {R(x),P(x),T(x)} → 3 · 7 = 21 *)
  let l =
    List.of_seq
      (Candidates.linear ~caps:all_caps s_rpt ~n:1 ~m:0)
  in
  check_int "count 21" 21 (List.length l)

let test_tautology_pruning () =
  let with_taut =
    Candidates.count (Candidates.linear ~caps:all_caps s_rpt ~n:1 ~m:0)
  in
  let without =
    Candidates.count
      (Candidates.linear
         ~caps:Candidates.{ all_caps with keep_tautologies = false }
         s_rpt ~n:1 ~m:0)
  in
  (* a candidate is tautological iff every head atom already holds in the
     frozen body — here, exactly head = {body atom}: 3 tautologies pruned *)
  check_int "pruned" (with_taut - 3) without

let test_cover_known_tgds () =
  (* the separation tgd appears among guarded candidates *)
  let sep = tgd "R(x), P(x) -> T(x)." in
  let found =
    Candidates.guarded ~caps:all_caps s_rpt ~n:1 ~m:0
    |> Seq.exists (fun t -> Canonical.equal_up_to_renaming t sep)
  in
  check_bool "covers separation tgd" true found;
  let lin = tgd "E(x,y) -> exists z. E(y,z)." in
  let found_lin =
    Candidates.linear ~caps:all_caps s_e ~n:2 ~m:1
    |> Seq.exists (fun t -> Canonical.equal_up_to_renaming t lin)
  in
  check_bool "covers linear succ" true found_lin

let test_bodiless_candidates () =
  let has_bodiless =
    Candidates.linear ~caps:all_caps s_e ~n:1 ~m:1
    |> Seq.exists (fun t -> Tgd.body t = [])
  in
  check_bool "bodiless present when m ≥ 1" true has_bodiless;
  let none_bodiless =
    Candidates.linear ~caps:all_caps s_e ~n:1 ~m:0
    |> Seq.for_all (fun t -> Tgd.body t <> [])
  in
  check_bool "no bodiless when m = 0" true none_bodiless

let test_growth_string_bodies () =
  (* E/2 with n=2: patterns E(x0,x0) and E(x0,x1): two linear bodies *)
  let bodies =
    Candidates.linear ~caps:all_caps s_e ~n:2 ~m:0
    |> Seq.filter_map (fun t ->
           match Tgd.body t with [ a ] -> Some (Atom.to_string a) | _ -> None)
    |> List.of_seq |> List.sort_uniq compare
  in
  check_int "two body patterns" 2 (List.length bodies)

let test_completeness_flags () =
  check_bool "capped incomplete" false
    (Candidates.linear_complete Candidates.default_caps s_rpt ~n:1 ~m:0);
  check_bool "uncapped complete" true
    (Candidates.linear_complete all_caps s_rpt ~n:1 ~m:0);
  check_bool "guarded needs body cap too" false
    (Candidates.guarded_complete
       Candidates.{ all_caps with max_body_atoms = 2 }
       s_rpt ~n:1 ~m:0);
  check_bool "guarded complete" true
    (Candidates.guarded_complete all_caps s_rpt ~n:1 ~m:0)

let test_head_conjunctions () =
  let heads =
    Candidates.head_conjunctions all_caps s_e [ v "x" ] ~m:1 |> List.of_seq
  in
  (* atoms over {x, z0}: 4; non-empty subsets: 15; minus those where z0
     usage is fine anyway (prefix condition trivial for m=1) *)
  check_int "15 heads" 15 (List.length heads);
  List.iter (fun h -> check_bool "non-empty" true (h <> [])) heads

(* ---- the constructed linear space = enumerate-then-canonicalize ---- *)

(* The pipeline {!Candidates.linear} replaced, kept as its oracle: build
   every (body, head) pair, drop tautologies with the freeze-and-hom
   check, canonicalize and keep first occurrences across the whole
   space. *)
let oracle_linear caps schema ~n ~m =
  let body_atoms =
    Schema.relations schema |> List.to_seq
    |> Seq.concat_map (fun r ->
           Combinat.growth_strings (Relation.arity r) n
           |> Seq.map (fun p ->
                  Atom.make r
                    (List.map (fun i -> Term.var (Variable.indexed "x" i)) p)))
  in
  let pairs =
    Seq.append
      (if m = 0 then Seq.empty
       else
         Seq.map (fun h -> ([], h)) (Candidates.head_conjunctions caps schema [] ~m))
      (Seq.concat_map
         (fun b ->
           Candidates.head_conjunctions caps schema
             (Variable.Set.elements (Atom.vars b))
             ~m
           |> Seq.map (fun h -> ([ b ], h)))
         body_atoms)
  in
  let seen = ref Tgd.Set.empty in
  pairs
  |> Seq.filter_map (fun (body, head) ->
         match Tgd.make ~body ~head with
         | s -> Some s
         | exception Invalid_argument _ -> None)
  |> Seq.filter (fun s ->
         caps.Candidates.keep_tautologies
         || not (Tgd_analysis.Lint.tautological s))
  |> Seq.filter_map (fun s ->
         let c = Canonical.tgd s in
         if Tgd.Set.mem c !seen then None
         else begin
           seen := Tgd.Set.add c !seen;
           Some c
         end)
  |> List.of_seq

(* Atoms over [vars] variables, summed over the schema. *)
let pool_size schema vars =
  List.fold_left
    (fun acc r ->
      acc + int_of_float (float_of_int vars ** float_of_int (Relation.arity r)))
    0 (Schema.relations schema)

let rec choose p k = if k = 0 then 1 else choose (p - 1) (k - 1) * p / k

(* A schema of one or two relations of arity ≤ 3, n ≤ 3, m ≤ 2, head cap
   ≤ 3, tautologies kept or not.  The head cap is lowered while the head
   space of one body would exceed 2,000 sets, so a case stays small. *)
let gen_linear_case =
  let open QCheck.Gen in
  let* arities = list_size (int_range 1 2) (int_range 0 3) in
  let* n = int_range 0 3 in
  let* m = int_range 0 2 in
  let* h = int_range 1 3 in
  let* keep = bool in
  let schema = schema (List.mapi (fun i a -> (Printf.sprintf "R%d" i, a)) arities) in
  let p = pool_size schema (n + m) in
  let rec fit h = if h > 1 && choose p h > 2000 then fit (h - 1) else h in
  let caps =
    Candidates.{ max_body_atoms = 1; max_head_atoms = fit h; keep_tautologies = keep }
  in
  return (schema, n, m, caps)

let print_linear_case (schema, n, m, caps) =
  Fmt.str "%a n=%d m=%d max_head_atoms=%d keep_tautologies=%b" Schema.pp schema n m
    caps.Candidates.max_head_atoms caps.Candidates.keep_tautologies

let prop_linear_matches_oracle =
  QCheck.Test.make
    ~name:"linear = canonicalize-and-dedup oracle, as a sequence" ~count:80
    (QCheck.make ~print:print_linear_case gen_linear_case)
    (fun (schema, n, m, caps) ->
      List.equal Tgd.equal
        (List.of_seq (Candidates.linear ~caps schema ~n ~m))
        (oracle_linear caps schema ~n ~m))

let suite =
  [ case "linear membership" test_linear_membership;
    case "guarded membership" test_guarded_membership;
    case "full membership" test_full_membership;
    case "frontier-guarded membership" test_frontier_guarded_membership;
    case "no duplicates modulo renaming" test_no_duplicates_modulo_renaming;
    case "exhaustive small case" test_exhaustive_small_case;
    case "tautology pruning" test_tautology_pruning;
    case "covers known tgds" test_cover_known_tgds;
    case "bodiless candidates" test_bodiless_candidates;
    case "growth-string bodies" test_growth_string_bodies;
    case "completeness flags" test_completeness_flags;
    case "head conjunctions" test_head_conjunctions;
    QCheck_alcotest.to_alcotest prop_linear_matches_oracle
  ]
