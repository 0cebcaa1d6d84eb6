open Tgd_syntax
open Tgd_instance
open Tgd_engine

type budget = Budget.t

let default_budget = Budget.default

type outcome = Seminaive.outcome =
  | Terminated
  | Truncated of Budget.exhaustion

type result = Seminaive.result = {
  instance : Instance.t;
  outcome : outcome;
  rounds : int;
  fired : int;
  stats : Stats.t;
}

let fire ?(on_fire = fun _ _ -> ()) null_counter inst tr =
  let tgd = tr.Trigger.tgd in
  let h =
    Variable.Set.fold
      (fun z acc ->
        incr null_counter;
        Binding.add z (Constant.null !null_counter) acc)
      (Tgd.existential_vars tgd)
      tr.Trigger.hom
  in
  match Binding.ground_atoms h (Tgd.head tgd) with
  | Some facts ->
    on_fire tr facts;
    List.fold_left Instance.add_fact inst facts
  | None -> assert false (* body ∪ existential vars cover the head *)

(* The original snapshot-rescan loop, kept as a reference implementation
   behind [~naive:true] and exercised by the differential tests.

   Scan accounting: one scan per trigger enumerated during matching — the
   same unit the engine books, so naive/engine scan totals are directly
   comparable.  The rescan cost shows up as the naive loop re-enumerating
   {e every} body homomorphism of the snapshot each round, where the engine
   only enumerates triggers touching the previous delta. *)
let run_naive ~recheck_active ~skip_fired ?(budget = default_budget) ?on_fire
    sigma inst =
  let stats = Stats.create () in
  let null_counter = ref (Seminaive.max_null inst) in
  let fired_keys : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let current = ref inst in
  let rounds = ref 0 in
  let fired = ref 0 in
  let trip = ref None in
  let set_trip r = if !trip = None then trip := Some r in
  let poll = ref 0 in
  let progressed = ref true in
  (try
     while !progressed && !trip = None && !rounds < budget.Budget.max_rounds do
       (match Budget.check budget with
       | Some r -> set_trip r
       | None ->
         incr rounds;
         progressed := false;
         let before = Instance.fact_count !current in
         let snapshot = !current in
         let t0 = Unix.gettimeofday () in
         List.iter
           (fun tgd ->
             if !trip = None then
               Seq.iter
                 (fun tr ->
                   if !trip = None then begin
                     Chaos.step ~site:"chase.naive";
                     incr poll;
                     if !poll land 63 = 0 then
                       Option.iter set_trip (Budget.check budget);
                     stats.Stats.scans <- stats.Stats.scans + 1;
                     let skip =
                       !trip <> None
                       || (skip_fired && Hashtbl.mem fired_keys (Trigger.key tr))
                       || (recheck_active && not (Trigger.is_active tr !current))
                     in
                     if not skip then begin
                       match Budget.spend_fuel budget 1 with
                       | Some r -> set_trip r
                       | None ->
                         if skip_fired then
                           Hashtbl.add fired_keys (Trigger.key tr) ();
                         current := fire ?on_fire null_counter !current tr;
                         incr fired;
                         stats.Stats.fired <- stats.Stats.fired + 1;
                         progressed := true;
                         if Instance.fact_count !current > budget.Budget.max_facts
                         then set_trip Budget.Facts
                     end
                   end)
                 (* activity is antitone in the instance, so filtering the
                    full snapshot enumeration against the live instance
                    fires exactly the triggers the old double check (active
                    in snapshot, then in current) did, in the same order *)
                 (Trigger.all tgd snapshot))
           sigma;
         stats.Stats.fire_time <-
           stats.Stats.fire_time +. (Unix.gettimeofday () -. t0);
         stats.Stats.delta_facts <-
           stats.Stats.delta_facts + (Instance.fact_count !current - before))
     done
   with Chaos.Injected site -> set_trip (Budget.Fault site));
  stats.Stats.rounds <- !rounds;
  let outcome =
    match !trip with
    | Some r -> Truncated r
    | None ->
      if !progressed then
        (* the loop stopped because of max_rounds while still making progress *)
        if !rounds >= budget.Budget.max_rounds
           && List.exists
                (fun tgd -> not (Seq.is_empty (Trigger.active tgd !current)))
                sigma
        then Truncated Budget.Rounds
        else Terminated
      else Terminated
  in
  Stats.add ~into:(Stats.global ()) stats;
  { instance = !current; outcome; rounds = !rounds; fired = !fired; stats }

let run_engine ~mode ?(budget = default_budget) ?on_fire ~jobs ?chunk sigma
    inst =
  let on_fire =
    Option.map
      (fun f tgd hom facts -> f { Trigger.tgd; hom } facts)
      on_fire
  in
  (* warm pool: saturation rounds (and repeated chases — screening runs
     thousands) reuse live domains instead of re-spawning per call *)
  Pool.with_warm ~jobs (fun pool ->
      Seminaive.run ~mode ~budget ?on_fire ?pool ?chunk sigma inst)

(* Whether a result is a function of the deterministic caps alone: complete
   runs and cap-truncated runs qualify; deadline-, memory-, fuel-,
   cancellation- or fault-truncated runs stopped at a wall-clock accident
   and must not be cached under {!Budget.key}. *)
let deterministic_result r =
  match r.outcome with
  | Terminated | Truncated (Budget.Rounds | Budget.Facts) -> true
  | Truncated _ -> false

(* ------------------------------------------------------------------ *)
(* Analysis-driven promotion                                           *)
(*                                                                     *)
(* A termination certificate guarantees the chase finishes on every    *)
(* instance, so a round cap on a certified set is advisory: when it    *)
(* trips, re-running with the cap lifted turns the [Truncated Rounds]  *)
(* into a definite result.  Only the round cap is lifted — fact caps,  *)
(* deadlines, fuel and cancellation are memory/wall-clock guards the   *)
(* certificate says nothing about.                                     *)
(*                                                                     *)
(* The restricted chase consults the full termination lattice (SWA,    *)
(* MSA, MFA, stratification on top of WA/JA): every lattice notion     *)
(* bounds the Skolem chase, hence the restricted chase too.  The       *)
(* oblivious chase keeps the WA/JA front only: it fires once per       *)
(* *universal* binding, so frontier-empty existentials replay beyond   *)
(* what the Skolem-chase notions bound.                                *)
(* ------------------------------------------------------------------ *)

(* Only the restricted chase's lattice verdicts are cached: serving runs
   that chase for every request, while the oblivious chase (CLI and tests
   only) computes its WA/JA certificate when a round cap trips. *)
let certificate_memo : bool Memo.t = Memo.create ~name:"termination-lattice" ()

let clear_memo () = Memo.clear certificate_memo

let certified_terminating sigma =
  Tgd_analysis.Termination.certificate sigma <> None

let lattice_certified sigma =
  let key = Memo.sigma_key sigma in
  match Memo.find certificate_memo key with
  | Some b -> b
  | None ->
    let b = Tgd_analysis.Lattice.classify sigma <> None in
    Memo.add certificate_memo key b;
    b

let with_promotion ~certified ~analyze ~budget ~rerun sigma r =
  match r.outcome with
  | Truncated Budget.Rounds
    when analyze && budget.Budget.max_rounds < max_int && certified sigma ->
    rerun (Budget.with_rounds budget max_int)
  | _ -> r

let restricted ?(naive = false) ?(budget = default_budget) ?on_fire
    ?(jobs = 1) ?chunk ?(analyze = true) sigma inst =
  let go budget =
    if naive then
      run_naive ~recheck_active:true ~skip_fired:false ~budget ?on_fire sigma
        inst
    else
      run_engine ~mode:Seminaive.Restricted ~budget ?on_fire ~jobs ?chunk sigma
        inst
  in
  with_promotion ~certified:lattice_certified ~analyze ~budget ~rerun:go sigma
    (go budget)

let oblivious ?(naive = false) ?(budget = default_budget) ?on_fire ?(jobs = 1)
    ?chunk ?(analyze = true) sigma inst =
  let go budget =
    if naive then
      run_naive ~recheck_active:false ~skip_fired:true ~budget ?on_fire sigma
        inst
    else
      run_engine ~mode:Seminaive.Oblivious ~budget ?on_fire ~jobs ?chunk sigma
        inst
  in
  with_promotion ~certified:certified_terminating ~analyze ~budget ~rerun:go
    sigma (go budget)

(* ------------------------------------------------------------------ *)
(* Durable checkpoints                                                 *)
(* ------------------------------------------------------------------ *)

type checkpoint = {
  chk_instance : Instance.t;
  chk_rounds : int;
  chk_fired : int;
}

let log_kind = "chase-delta"

let log_config ?fsync ~dir ~name () =
  Delta_log.config ?fsync ~dir ~name ~kind:log_kind ()

(* Base payload: the full committed state (instance, rounds, fired).
   Delta payload: the spans added since the previous record — rounds,
   firings, and the new facts in commit order, relations encoded as indices
   into the base schema.  Folding base + deltas in order reconstructs the
   exact instance (facts carry their literal nulls, and every fresh null
   lands in an added fact, so [Seminaive.max_null] restores the null
   counter too). *)
let encode_base cp =
  let buf = Buffer.create 4096 in
  Codec.write_instance buf cp.chk_instance;
  Wire.write_varint buf cp.chk_rounds;
  Wire.write_varint buf cp.chk_fired;
  Buffer.contents buf

let encode_delta w ~rounds ~fired facts =
  let buf = Buffer.create 256 in
  Wire.write_varint buf rounds;
  Wire.write_varint buf fired;
  Codec.write_facts w buf facts;
  Buffer.contents buf

let decode_chain (chain : Delta_log.chain) =
  let r = Wire.reader chain.Delta_log.base in
  let inst = Codec.read_instance r in
  let rounds = Wire.read_varint r in
  let fired = Wire.read_varint r in
  let rr = Codec.rel_reader (Instance.schema inst) in
  List.fold_left
    (fun cp payload ->
      let r = Wire.reader payload in
      let dr = Wire.read_varint r in
      let df = Wire.read_varint r in
      let facts = Codec.read_facts rr r in
      { chk_instance = List.fold_left Instance.add_fact cp.chk_instance facts;
        chk_rounds = cp.chk_rounds + dr;
        chk_fired = cp.chk_fired + df
      })
    { chk_instance = inst; chk_rounds = rounds; chk_fired = fired }
    chain.Delta_log.deltas

(* Checkpointed restricted chase: one engine run whose round-barrier
   commits ({!Seminaive.run}'s [on_commit]) are journaled — a record every
   [every] committed rounds, carrying only that span's new facts, which is
   what makes fine-grained [every] affordable.  Every barrier commits, a
   faulted round's included, so the chain always describes a state the
   engine reached.

   A resumed run replays base + deltas to the exact committed state (same
   facts, same literal nulls) and continues the saturation from there; the
   engine's delta stratification restarts at the checkpoint, so round
   numbering and fresh-null naming after the resume point may differ from
   the uninterrupted run — the result is identical up to null renaming
   (isomorphism), which is all the chase ever promises.  Certificate-based
   promotion is disabled. *)
let restricted_resumable ?(budget = default_budget) ?(jobs = 1) ?chunk
    ?(every = 8) ~journal sigma inst =
  if every < 1 then
    invalid_arg "Chase.restricted_resumable: every must be >= 1";
  let start =
    match journal.Delta_log.resumed with
    | Some r -> r.Delta_log.state
    | None -> { chk_instance = inst; chk_rounds = 0; chk_fired = 0 }
  in
  let log = Delta_log.open_journal journal ~base:(fun () -> encode_base start) in
  let w = Codec.rel_writer (Instance.schema start.chk_instance) in
  (* this run's rounds and firings the chain holds so far *)
  let logged_rounds = ref 0 and logged_fired = ref 0 in
  let pending = ref [] (* committed rounds not yet appended, newest first *) in
  let pending_rounds = ref 0 in
  let flush ~rounds ~fired =
    let facts = List.concat (List.rev !pending) in
    let dr = rounds - !logged_rounds and df = fired - !logged_fired in
    pending := [];
    pending_rounds := 0;
    if dr > 0 || df > 0 || facts <> [] then begin
      logged_rounds := rounds;
      logged_fired := fired;
      Delta_log.append log (encode_delta w ~rounds:dr ~fired:df facts)
    end
  in
  (* A round that commits nothing is the quiescent last one (or one a trip
     cut short, which the final sync below records).  Journaling it would
     make a run killed before its clean-up resume one round too many. *)
  let on_commit ~round ~fired facts =
    if facts <> [] then begin
      pending := facts :: !pending;
      incr pending_rounds;
      if !pending_rounds >= every then flush ~rounds:round ~fired
    end
  in
  let budget =
    Budget.with_rounds budget (max 0 (budget.Budget.max_rounds - start.chk_rounds))
  in
  let r =
    Pool.with_warm ~jobs (fun pool ->
        Seminaive.run ~mode:Seminaive.Restricted ~budget ~on_commit ?pool ?chunk
          sigma start.chk_instance)
  in
  (match r.outcome with
  | Terminated -> Delta_log.finish log
  | Truncated _ ->
    (* sync the chain to the exact result state before handing back *)
    flush ~rounds:r.rounds ~fired:r.fired;
    Delta_log.close log);
  { r with rounds = start.chk_rounds + r.rounds; fired = start.chk_fired + r.fired }

let is_model r = r.outcome = Terminated

let pp_result ppf r =
  Fmt.pf ppf "@[<v>outcome: %s; rounds: %d; fired: %d; facts: %d@]"
    (match r.outcome with
    | Terminated -> "terminated"
    | Truncated reason ->
      "truncated: " ^ Budget.exhaustion_to_string reason)
    r.rounds r.fired
    (Instance.fact_count r.instance)
