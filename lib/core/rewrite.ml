open Tgd_syntax
open Tgd_instance
module Entailment = Tgd_chase.Entailment
module Stats = Tgd_engine.Stats
module Pool = Tgd_engine.Pool
module Budget = Tgd_engine.Budget
module Chaos = Tgd_engine.Chaos
module Delta_log = Tgd_engine.Delta_log
module Wire = Tgd_engine.Wire
module Codec = Tgd_engine.Codec

type checkpoint = {
  cursor : int;
  screened_prefix : (Tgd.t * Entailment.answer) list;
}

type config = {
  caps : Candidates.caps;
  budget : Tgd_chase.Chase.budget;
  minimize : bool;
  naive : bool;
  memo : bool;
  jobs : int;
  chunk : int option;
  analyze : bool;
  checkpoint : checkpoint Delta_log.journal option;
  checkpoint_every : int;
}

let default_config =
  { caps = Candidates.default_caps;
    budget = Tgd_chase.Chase.default_budget;
    minimize = true;
    naive = false;
    memo = true;
    jobs = 1;
    chunk = None;
    analyze = true;
    checkpoint = None;
    checkpoint_every = 1
  }

let log_kind = "rewrite-delta"

let log_config ?fsync ~dir ~name () =
  Delta_log.config ?fsync ~dir ~name ~kind:log_kind ()

type outcome =
  | Rewritable of Tgd.t list
  | Not_rewritable of { complete : bool; unknown_candidates : int }
  | Unknown of string

let pp_outcome ppf = function
  | Rewritable sigma' ->
    Fmt.pf ppf "@[<v>rewritable:@,%a@]"
      Fmt.(list ~sep:cut (box Tgd.pp))
      sigma'
  | Not_rewritable { complete; unknown_candidates } ->
    Fmt.pf ppf "not rewritable (%s%s)"
      (if complete then "definitive" else "within caps")
      (if unknown_candidates = 0 then ""
       else Printf.sprintf ", %d undecided candidates" unknown_candidates)
  | Unknown why -> Fmt.pf ppf "unknown: %s" why

(* --- incremental checkpoint codec ------------------------------------- *)

(* Base and delta records share one shape: the cursor {e after} the carried
   entries, then the entries themselves ((tgd, answer) pairs, structurally
   encoded — no [Marshal]).  A base carries the screened prefix the chain
   started from, a delta only the entries committed since the previous
   record; folding
   base + deltas in order reconstructs the checkpoint exactly. *)
let encode_entries ~cursor entries =
  let buf = Buffer.create 512 in
  Wire.write_varint buf cursor;
  Wire.write_varint buf (List.length entries);
  List.iter
    (fun (tgd, answer) ->
      Codec.write_tgd buf tgd;
      Wire.write_varint buf
        (match answer with
        | Entailment.Proved -> 0
        | Entailment.Disproved -> 1
        | Entailment.Unknown -> 2))
    entries;
  Buffer.contents buf

let decode_entries payload =
  let r = Wire.reader payload in
  let cursor = Wire.read_varint r in
  let n = Wire.read_varint r in
  let entries =
    List.init n (fun _ ->
        let tgd = Codec.read_tgd r in
        let answer =
          match Wire.read_varint r with
          | 0 -> Entailment.Proved
          | 1 -> Entailment.Disproved
          | 2 -> Entailment.Unknown
          | t -> raise (Wire.Corrupt (Printf.sprintf "bad answer tag %d" t))
        in
        (tgd, answer))
  in
  (cursor, entries)

let decode_chain (chain : Delta_log.chain) =
  let cursor0, base_entries = decode_entries chain.Delta_log.base in
  let cursor, entries_rev =
    List.fold_left
      (fun (_, acc) payload ->
        let cursor, es = decode_entries payload in
        (cursor, List.rev_append es acc))
      (cursor0, List.rev base_entries)
      chain.Delta_log.deltas
  in
  { cursor; screened_prefix = List.rev entries_rev }

type report = {
  outcome : outcome;
  n : int;
  m : int;
  candidates_enumerated : int;
  candidates_entailed : int;
  candidates_skipped : int;
  checkpoint : checkpoint option;
  stats : Stats.t;
}

let schema_of sigma =
  Schema.make
    (List.concat_map
       (fun s -> List.map Atom.rel (Tgd.body s @ Tgd.head s))
       sigma)

let class_bounds sigma =
  List.fold_left
    (fun (n, m) s -> (max n (Tgd.n_universal s), max m (Tgd.m_existential s)))
    (0, 0) sigma

(* Greedy minimization: drop a member when the remainder still entails it.
   Larger members are tried first so the surviving set is small. *)
let minimize_set ?naive ?memo ?analyze budget sigma' =
  let by_size =
    List.sort (fun a b -> Int.compare (Tgd.size b) (Tgd.size a)) sigma'
  in
  List.fold_left
    (fun kept s ->
      let rest = List.filter (fun t -> not (Tgd.equal t s)) kept in
      match Entailment.entails ?naive ?memo ?analyze ~budget rest s with
      | Entailment.Proved -> rest
      | Entailment.Disproved | Entailment.Unknown -> kept)
    by_size by_size

(* Analysis prefilter: a candidate whose head mentions a relation outside
   the relation-level derivability closure of its body relations is
   definitely not entailed — the chase of the frozen body can only derive
   facts over that closure (see {!Tgd_analysis.Depgraph.derivable}).  The
   closure of a union is not the union of closures, so closures are cached
   per whole body relation set (sorted, as the table key): a linear sweep
   computes one per body relation. *)
let prefilter sigma =
  let g = Tgd_analysis.Depgraph.make sigma in
  let closures = Hashtbl.create 16 in
  fun candidate ->
    let rels =
      List.sort_uniq Relation.compare (List.map Atom.rel (Tgd.body candidate))
    in
    let reachable =
      match Hashtbl.find_opt closures rels with
      | Some c -> c
      | None ->
        let c = Tgd_analysis.Depgraph.close g (Relation.Set.of_list rels) in
        Hashtbl.add closures rels c;
        c
    in
    not
      (List.for_all
         (fun a -> Relation.Set.mem (Atom.rel a) reachable)
         (Tgd.head candidate))

(* First [n] items of [seq] as a list, plus the remainder. *)
let take n seq =
  let rec go n acc seq =
    if n = 0 then (List.rev acc, seq)
    else
      match seq () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (x, rest) -> go (n - 1) (x :: acc) rest
  in
  go n [] seq

(* The generic engine behind both algorithms.  Screening commits per
   batch of [4 × jobs × chunk] candidates: the budget is checked at every
   batch boundary, a batch in flight when a live limit trips (or a
   {!Tgd_engine.Chaos} fault fires) is discarded wholesale, and the
   checkpoint cursor points at the last committed boundary — so partial
   results are identical at any [jobs].  A trip during the backward check
   or minimization also reports [Truncated], with the full screening
   checkpoint, since answers influenced by an already-cancelled budget
   must not be trusted. *)
let rewrite_into ?(config = default_config) ?resume enumerate ~complete sigma =
  let naive = config.naive and memo = config.memo in
  let analyze = config.analyze in
  let budget = config.budget in
  let before = Stats.copy (Stats.global ()) in
  let schema = schema_of sigma in
  let n, m = class_bounds sigma in
  let resume =
    match (config.checkpoint, resume) with
    | Some { Delta_log.resumed = Some r; _ }, None -> Some r.Delta_log.state
    | Some { Delta_log.resumed = Some _; _ }, Some _ ->
      invalid_arg "Rewrite: ?resume and a resumed journal are exclusive"
    | _, resume -> resume
  in
  let start, prefix =
    match resume with
    | Some cp -> (cp.cursor, cp.screened_prefix)
    | None -> (0, [])
  in
  (* Forward screening: each candidate's Σ ⊨ σ check is independent, so
     with [jobs > 1] the candidates are screened on a domain pool.  The
     pool preserves input order and merges worker counters back here, so
     the entailed list (and hence the outcome) is the same as the
     sequential path's; only memo hit/miss splits may differ when workers
     race to compute one entry.  The backward Σ' ⊨ Σ check and greedy
     minimization stay sequential — both consume the previous answer
     before choosing the next query, so there is nothing to fan out.

     Screening commits per {e batch}: the budget is checked before and
     after each batch, and a batch during which a live limit tripped (or a
     fault was injected) is discarded wholesale — its answers may have been
     computed against an already-cancelled budget.  The checkpoint cursor
     therefore always points at a batch boundary, and a resumed run
     re-screens from exactly there, so resume ∘ truncate = unbudgeted. *)
  (* A resumed prefix replays recorded answers without re-screening, so its
     prefilter hits must be re-derived here — otherwise the skipped counter
     would depend on where the previous run stopped. *)
  let prefilter = if config.analyze then prefilter sigma else fun _ -> false in
  let skipped =
    ref (List.fold_left (fun k (c, _) -> if prefilter c then k + 1 else k) 0 prefix)
  in
  let entails candidate =
    Entailment.entails ~naive ~memo ~budget ~analyze sigma candidate
  in
  (* Cost-sized chunking: the analysis strategy predicts the per-candidate
     screening cost (a termination certificate bounds each chase), and
     {!Tgd_analysis.Strategy.screen_chunk} turns that into how many
     candidates one pool claim should carry — many when certified-cheap,
     few when uncertified-heavy.  [config.chunk] overrides the prediction
     (the [--chunk] knob).  Each committed batch holds ~4 chunks per
     worker so dynamic claiming has slack to rebalance. *)
  let strat = Tgd_analysis.Strategy.decide sigma in
  let chunk_for ~items =
    match config.chunk with
    | Some c -> max 1 c
    | None -> Tgd_analysis.Strategy.screen_chunk strat ~jobs:config.jobs ~n:items
  in
  let batch_size = max 1 (4 * config.jobs * chunk_for ~items:max_int) in
  (* Durable checkpoints ride the same batch boundaries the in-memory
     checkpoint uses: the persisted cursor always points at a committed
     boundary, so a process killed mid-batch resumes exactly where an
     in-process truncation would have.  [persist] runs on the submitting
     domain only — workers never touch the chain. *)
  let log =
    Option.map
      (fun j ->
        Delta_log.open_journal j ~base:(fun () ->
            encode_entries ~cursor:start prefix))
      config.checkpoint
  in
  (* Entries committed since the last record, newest first: a record
     appends only these, so its cost is the batches since the last save,
     not the whole prefix. *)
  let unsaved = ref [] in
  let persist ~cursor =
    Option.iter
      (fun t ->
        let fresh = List.rev !unsaved in
        unsaved := [];
        Delta_log.append t (encode_entries ~cursor fresh))
      log
  in
  (* One batch's answers, in batch order.  Prefiltered candidates are
     answered here, on the submitting domain; only the rest are chased,
     on the pool when there is one.  The batch is a fault site of its own,
     so a sweep whose candidates are all prefiltered can still fault. *)
  let screen_batch pool batch =
    Chaos.step ~site:"rewrite.batch";
    let flagged = List.map (fun c -> (c, prefilter c)) batch in
    let to_chase =
      List.filter_map (fun (c, hit) -> if hit then None else Some c) flagged
    in
    let chased =
      match pool with
      | _ when to_chase = [] -> []
      | None -> List.map entails to_chase
      | Some pool ->
        Pool.parallel_map pool
          ~chunk:(chunk_for ~items:(List.length to_chase))
          entails (List.to_seq to_chase)
    in
    let rec merge flagged chased hits acc =
      match (flagged, chased) with
      | [], _ -> (List.rev acc, hits)
      | (c, true) :: flagged, _ ->
        merge flagged chased (hits + 1) ((c, Entailment.Disproved) :: acc)
      | (c, false) :: flagged, a :: chased ->
        merge flagged chased hits ((c, a) :: acc)
      | (_, false) :: _, [] -> assert false
    in
    merge flagged chased 0 []
  in
  let run pool =
    let screened_rev = ref (List.rev prefix) in
    let cursor = ref start in
    let trip = ref None in
    let rest = ref (Seq.drop start (enumerate config.caps schema ~n ~m)) in
    let exhausted = ref false in
    let since_save = ref 0 in
    while !trip = None && not !exhausted do
      match Budget.check budget with
      | Some r -> trip := Some r
      | None ->
        let batch, rest' = take batch_size !rest in
        if batch = [] then exhausted := true
        else begin
          match screen_batch pool batch with
          | results, hits ->
            (match Budget.check budget with
            | Some r -> trip := Some r (* discard the polluted batch *)
            | None ->
              screened_rev := List.rev_append results !screened_rev;
              skipped := !skipped + hits;
              cursor := !cursor + List.length batch;
              rest := rest';
              if Option.is_some log then begin
                unsaved := List.rev_append results !unsaved;
                incr since_save;
                if !since_save >= config.checkpoint_every then begin
                  since_save := 0;
                  persist ~cursor:!cursor
                end
              end)
          | exception Chaos.Injected site -> trip := Some (Budget.Fault site)
        end
    done;
    (!trip, List.rev !screened_rev, !cursor)
  in
  (* Warm pool: borrowed from the process-wide registry so repeated sweeps
     (benches, serving) never pay domain spawns per call; [with_warm]
     hands back [None] — the sequential path — when [jobs <= 1]. *)
  let trip, screened, cursor = Pool.with_warm ~jobs:config.jobs run in
  let unknown = ref 0 in
  let entailed =
    List.filter_map
      (fun (candidate, answer) ->
        match answer with
        | Entailment.Proved -> Some candidate
        | Entailment.Unknown ->
          incr unknown;
          None
        | Entailment.Disproved -> None)
      screened
  in
  let mk_report outcome checkpoint =
    { outcome;
      n;
      m;
      candidates_enumerated = cursor;
      candidates_entailed = List.length entailed;
      candidates_skipped = !skipped;
      checkpoint;
      stats = Stats.diff (Stats.copy (Stats.global ())) before
    }
  in
  let truncated ~phase reason =
    let cp = { cursor; screened_prefix = screened } in
    persist ~cursor;
    Option.iter Delta_log.close log;
    let partial =
      mk_report
        (Unknown
           (Fmt.str "truncated during %s: %a" phase Budget.pp_exhaustion reason))
        (Some cp)
    in
    Budget.Truncated { reason; partial; progress = partial.stats }
  in
  match trip with
  | Some reason -> truncated ~phase:"candidate screening" reason
  | None -> (
    let backward =
      Entailment.entails_set ~naive ~memo ~budget ~analyze entailed sigma
    in
    match Budget.check budget with
    | Some reason -> truncated ~phase:"the backward Σ' ⊨ Σ check" reason
    | None -> (
      let outcome =
        match backward with
        | Entailment.Proved ->
          let sigma' =
            if config.minimize then
              minimize_set ~naive ~memo ~analyze budget entailed
            else entailed
          in
          Rewritable sigma'
        | Entailment.Disproved ->
          Not_rewritable
            { complete = complete config.caps schema ~n ~m && !unknown = 0;
              unknown_candidates = !unknown
            }
        | Entailment.Unknown ->
          Unknown "chase budget exhausted while checking Σ' ⊨ Σ"
      in
      match Budget.check budget with
      | Some reason ->
        (* minimization tripped: entailment answers of [Unknown] kept
           redundant members, so the set is correct but possibly larger
           than the unbudgeted run's — report it as truncated with the
           full checkpoint so a resume recomputes the tail phases *)
        let cp = { cursor; screened_prefix = screened } in
        persist ~cursor;
        Option.iter Delta_log.close log;
        let partial = mk_report outcome (Some cp) in
        Budget.Truncated { reason; partial; progress = partial.stats }
      | None ->
        Option.iter Delta_log.finish log;
        Budget.Complete (mk_report outcome None)))

let g_to_l ?config ?resume sigma =
  if not (Tgd_class.all_in_class Tgd_class.Guarded sigma) then
    invalid_arg "Rewrite.g_to_l: input must be a set of guarded tgds";
  rewrite_into ?config ?resume
    (fun caps schema ~n ~m -> Candidates.linear ~caps schema ~n ~m)
    ~complete:(fun caps schema ~n ~m ->
      Candidates.linear_complete caps schema ~n ~m)
    sigma

let fg_to_g ?config ?resume sigma =
  if not (Tgd_class.all_in_class Tgd_class.Frontier_guarded sigma) then
    invalid_arg "Rewrite.fg_to_g: input must be frontier-guarded tgds";
  rewrite_into ?config ?resume
    (fun caps schema ~n ~m -> Candidates.guarded ~caps schema ~n ~m)
    ~complete:(fun caps schema ~n ~m ->
      Candidates.guarded_complete caps schema ~n ~m)
    sigma

let verify_equivalence_bounded sigma sigma' ~dom_size =
  let schema = Schema.union (schema_of sigma) (schema_of sigma') in
  Enumerate.instances_up_to schema dom_size
  |> Seq.filter (fun i ->
         Satisfaction.tgds i sigma <> Satisfaction.tgds i sigma')
  |> fun seq ->
  match seq () with Seq.Nil -> None | Seq.Cons (i, _) -> Some i

let to_frontier_guarded ?config ?resume sigma =
  rewrite_into ?config ?resume
    (fun caps schema ~n ~m -> Candidates.frontier_guarded ~caps schema ~n ~m)
    ~complete:(fun caps schema ~n ~m ->
      Candidates.generic_complete caps schema ~n ~m)
    sigma

let to_full ?config ?resume sigma =
  rewrite_into ?config ?resume
    (fun caps schema ~n ~m:_ -> Candidates.full ~caps schema ~n)
    ~complete:(fun caps schema ~n ~m:_ ->
      Candidates.generic_complete caps schema ~n ~m:0)
    sigma

let minimize ?(budget = Tgd_chase.Chase.default_budget) sigma =
  minimize_set budget sigma
