open Tgd_syntax
open Tgd_instance
open Tgd_engine

type answer =
  | Proved
  | Disproved
  | Unknown

let answer_to_string = function
  | Proved -> "proved"
  | Disproved -> "disproved"
  | Unknown -> "unknown"

let pp_answer ppf a = Fmt.string ppf (answer_to_string a)

(* Atomic: freezing happens concurrently on pool workers during parallel
   candidate screening.  The names only need to be collision-free, not
   sequential. *)
let frozen_counter = Atomic.make 0

let freeze atoms =
  let vars =
    List.fold_left
      (fun acc a -> Variable.Set.union acc (Atom.vars a))
      Variable.Set.empty atoms
  in
  Variable.Set.fold
    (fun v acc ->
      let n = 1 + Atomic.fetch_and_add frozen_counter 1 in
      Binding.add v
        (Constant.named (Printf.sprintf "~%s.%d" (Variable.name v) n))
        acc)
    vars Binding.empty

let freeze_instance schema atoms =
  let b = freeze atoms in
  let facts =
    List.map
      (fun a ->
        match Binding.ground_atom b a with
        | Some f -> f
        | None -> assert false)
      atoms
  in
  (b, Instance.of_facts schema facts)

let schema_of_tgds sigma extra =
  let rels =
    List.concat_map
      (fun s ->
        List.map Atom.rel (Tgd.body s) @ List.map Atom.rel (Tgd.head s))
      (extra :: sigma)
  in
  Schema.make rels

let schema_of_body sigma atoms =
  let rels =
    List.map Atom.rel atoms
    @ List.concat_map
        (fun s ->
          List.map Atom.rel (Tgd.body s) @ List.map Atom.rel (Tgd.head s))
        sigma
  in
  Schema.make rels

(* --------------------------------------------------------------------- *)
(* Memoized entailment                                                    *)
(*                                                                        *)
(* Two levels.  The answer cache is keyed on the canonical (Σ, σ, budget) *)
(* triple, so renaming-equivalent queries are answered once.  Below it,   *)
(* the chase cache is keyed on (Σ, canonical body, budget): candidate     *)
(* tgds sharing a body — the common shape in the Algorithm 1/2 candidate  *)
(* sweeps, where one body is paired with many heads — share a single      *)
(* chase, and only the final head-homomorphism check runs per candidate.  *)
(* --------------------------------------------------------------------- *)

let memo_answers : answer Memo.t = Memo.create ~name:"entails" ()

let memo_chases : (Binding.t * Chase.result) Memo.t =
  Memo.create ~name:"chase" ()

let clear_memos () =
  Memo.clear memo_answers;
  Memo.clear memo_chases

let memo_sizes () = (Memo.size memo_answers, Memo.size memo_chases)

(* Server-scope cache governance: answers are a few words each, cached
   chases dominate the footprint, so an overall ceiling gives the answer
   table an eighth and the chase table the rest. *)
let set_cache_limit ~bytes =
  match bytes with
  | None ->
    Memo.set_limit memo_answers ~bytes:None;
    Memo.set_limit memo_chases ~bytes:None
  | Some b ->
    Memo.set_limit memo_answers ~bytes:(Some (max 4096 (b / 8)));
    Memo.set_limit memo_chases ~bytes:(Some (max 4096 (b - (b / 8))))

let cache_counters () =
  Memo.combine_counters (Memo.counters memo_answers) (Memo.counters memo_chases)

(* Only the deterministic caps participate in cache keys ({!Budget.key}),
   and only deterministically-truncated chase results (and the answers
   derived from them) are stored — see {!Chase.deterministic_result}. *)
let budget_key (b : Chase.budget) = Budget.key b

(* The frozen binding for [s]'s own variables, given the freezing of the
   canonical body and the renaming into canonical variables. *)
let unrename_frozen renaming frozen_canonical =
  Variable.Map.fold
    (fun v cv acc ->
      match Binding.find cv frozen_canonical with
      | Some c -> Binding.add v c acc
      | None -> acc)
    renaming Binding.empty

let answer_of ~frozen ~s (result : Chase.result) =
  let partial = Binding.restrict (Tgd.frontier s) frozen in
  if Hom.exists_hom ~partial (Tgd.head s) result.Chase.instance then Proved
  else if Chase.is_model result then Disproved
  else Unknown

let entails_plain ~naive ~budget ~analyze sigma s =
  let schema = schema_of_tgds sigma s in
  let frozen, db = freeze_instance schema (Tgd.body s) in
  let result = Chase.restricted ~naive ~budget ~analyze sigma db in
  answer_of ~frozen ~s result

let entails_memo ~naive ~budget ~analyze sigma s =
  let skey = Memo.sigma_key sigma in
  let bkey = budget_key budget in
  let akey = Fmt.str "%s |- %s @ %s" skey (Memo.tgd_key s) bkey in
  match Memo.find memo_answers akey with
  | Some a -> a
  | None ->
    let canonical_body, renaming, body_key = Memo.body_canonical (Tgd.body s) in
    let ckey = Fmt.str "%s |> %s @ %s" skey body_key bkey in
    let frozen_canonical, result =
      match Memo.find memo_chases ckey with
      | Some cached -> cached
      | None ->
        let schema = schema_of_body sigma canonical_body in
        let frozen, db = freeze_instance schema canonical_body in
        let r = Chase.restricted ~naive ~budget ~analyze sigma db in
        (* a chase cut short by a wall-clock accident (deadline, fuel,
           memory, cancellation, fault) must not be replayed under the
           caps-only key; cache hits are deterministic by construction *)
        if Chase.deterministic_result r then
          Memo.add memo_chases ckey (frozen, r);
        (frozen, r)
    in
    let frozen = unrename_frozen renaming frozen_canonical in
    let a = answer_of ~frozen ~s result in
    if Chase.deterministic_result result then Memo.add memo_answers akey a;
    a

let entails ?(naive = false) ?(memo = true) ?(budget = Chase.default_budget)
    ?(analyze = true) sigma s =
  if memo then entails_memo ~naive ~budget ~analyze sigma s
  else entails_plain ~naive ~budget ~analyze sigma s

let combine answers =
  List.fold_left
    (fun acc a ->
      match acc, a with
      | Disproved, _ | _, Disproved -> Disproved
      | Unknown, _ | _, Unknown -> Unknown
      | Proved, Proved -> Proved)
    Proved answers

let entails_set ?naive ?memo ?budget ?analyze sigma sigma' =
  combine (List.map (entails ?naive ?memo ?budget ?analyze sigma) sigma')

let equivalent ?naive ?memo ?budget ?analyze sigma sigma' =
  combine
    [ entails_set ?naive ?memo ?budget ?analyze sigma sigma';
      entails_set ?naive ?memo ?budget ?analyze sigma' sigma
    ]

let entails_egd _sigma e =
  if Egd.is_trivial e then Proved else Disproved

let entailed_subset ?naive ?memo ?budget ?analyze sigma candidates =
  List.partition
    (fun s -> entails ?naive ?memo ?budget ?analyze sigma s = Proved)
    candidates
