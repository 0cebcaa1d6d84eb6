open Tgd_syntax
open Tgd_instance
open Tgd_engine

type budget = Budget.t

let default_budget = Budget.default

type outcome =
  | Terminated
  | Truncated of Budget.exhaustion

type result = {
  instance : Instance.t;
  outcome : outcome;
  rounds : int;
  fired : int;
  stats : Stats.t;
}

let rec max_null_in_const acc = function
  | Constant.Null i -> max acc i
  | Constant.Pair (a, b) -> max_null_in_const (max_null_in_const acc a) b
  | Constant.Named _ | Constant.Indexed _ -> acc

let max_null inst =
  Constant.Set.fold (fun c acc -> max_null_in_const acc c) (Instance.dom inst) 0

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
  let null_counter = ref (max_null inst) in
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
  let r =
    Pool.with_warm ~jobs (fun pool ->
        Seminaive.run ~mode ~budget ?on_fire ?pool ?chunk sigma inst)
  in
  { instance = r.Seminaive.instance;
    outcome =
      (match r.Seminaive.outcome with
      | Seminaive.Terminated -> Terminated
      | Seminaive.Truncated reason -> Truncated reason);
    rounds = r.Seminaive.rounds;
    fired = r.Seminaive.fired;
    stats = r.Seminaive.stats
  }

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

let log_config ?keep ?fsync ~dir ~name () =
  Delta_log.config ?keep ?fsync ~dir ~name ~kind:log_kind ()

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

type resumed = {
  rz_checkpoint : checkpoint;
  rz_chain : Delta_log.chain;
  rz_warnings : string list;
}

let load_log cfg =
  match Delta_log.load cfg with
  | Delta_log.Fresh -> Ok None
  | Delta_log.Rejected errs -> Error (List.map Delta_log.error_to_string errs)
  | Delta_log.Resumed chain | Delta_log.Resumed_partial chain -> (
    match decode_chain chain with
    | cp ->
      Ok
        (Some
           { rz_checkpoint = cp;
             rz_chain = chain;
             rz_warnings = chain.Delta_log.warnings
           })
    | exception (Wire.Corrupt m | Invalid_argument m) ->
      (* CRC-valid bytes that do not decode: a format bug or a stale kind,
         never a partial write — reject rather than guess *)
      Error
        [ Printf.sprintf "%s: undecodable checkpoint payload (%s)"
            cfg.Delta_log.name m
        ])

(* Checkpointed restricted chase, rebuilt on the delta log: one engine run
   whose round-barrier commits ({!Seminaive.run}'s [on_commit]) accumulate
   into an append-only chain — a record every [every] committed rounds, a
   compaction folding the chain into a fresh base every [compact_every]
   records.  Appending a delta costs the bytes of that round's new facts,
   not the whole instance, which is what makes fine-grained [every]
   affordable (the old implementation re-seeded the engine per slice and
   marshalled the full state each boundary).

   A resumed run replays base + deltas to the exact committed state (same
   facts, same literal nulls) and continues the saturation from there; the
   engine's delta stratification restarts at the checkpoint, so round
   numbering and fresh-null naming after the resume point may differ from
   the uninterrupted run — the result is identical up to null renaming
   (isomorphism), which is all the chase ever promises.  Certificate-based
   promotion is disabled, as before. *)
let restricted_resumable ?(budget = default_budget) ?(jobs = 1) ?chunk
    ?(every = 8) ?(compact_every = 64) ~log ?resume sigma inst =
  if every < 1 then
    invalid_arg "Chase.restricted_resumable: every must be >= 1";
  if compact_every < 1 then
    invalid_arg "Chase.restricted_resumable: compact_every must be >= 1";
  let base_cp, handle =
    match resume with
    | Some r -> (r.rz_checkpoint, Delta_log.resume log r.rz_chain)
    | None ->
      let cp = { chk_instance = inst; chk_rounds = 0; chk_fired = 0 } in
      (cp, Delta_log.start log ~base:(encode_base cp))
  in
  let rounds0 = base_cp.chk_rounds and fired0 = base_cp.chk_fired in
  let start_inst = base_cp.chk_instance in
  let w = Codec.rel_writer (Instance.schema start_inst) in
  (* the state the log encodes so far: base + every appended record *)
  let mirror = ref start_inst in
  let mirror_rounds = ref rounds0 in
  let mirror_fired = ref fired0 in
  let fired_live = ref 0 in
  let pending = ref [] (* committed rounds not yet appended, newest first *) in
  let pending_rounds = ref 0 in
  let flush ~rounds ~fired =
    let facts = List.concat (List.rev !pending) in
    let rounds_span = rounds0 + rounds - !mirror_rounds in
    let fired_span = fired0 + fired - !mirror_fired in
    if rounds_span > 0 || fired_span > 0 || facts <> [] then begin
      Delta_log.append handle
        (encode_delta w ~rounds:rounds_span ~fired:fired_span facts);
      mirror := List.fold_left Instance.add_fact !mirror facts;
      mirror_rounds := !mirror_rounds + rounds_span;
      mirror_fired := !mirror_fired + fired_span;
      pending := [];
      pending_rounds := 0;
      if Delta_log.delta_count handle >= compact_every then
        Delta_log.compact handle
          ~base:
            (encode_base
               { chk_instance = !mirror;
                 chk_rounds = !mirror_rounds;
                 chk_fired = !mirror_fired
               })
    end
  in
  let on_commit ~round dflat =
    pending := dflat :: !pending;
    incr pending_rounds;
    if !pending_rounds >= every then flush ~rounds:round ~fired:!fired_live
  in
  let on_fire _ _ _ = incr fired_live in
  let eff_budget =
    Budget.with_rounds budget (max 0 (budget.Budget.max_rounds - rounds0))
  in
  let r =
    Pool.with_warm ~jobs (fun pool ->
        Seminaive.run ~mode:Seminaive.Restricted ~budget:eff_budget ~on_fire
          ~on_commit ?pool ?chunk sigma start_inst)
  in
  let outcome =
    match r.Seminaive.outcome with
    | Seminaive.Terminated -> Terminated
    | Seminaive.Truncated reason -> Truncated reason
  in
  (match outcome with
  | Terminated ->
    Delta_log.close handle;
    Delta_log.remove log
  | Truncated reason ->
    (* sync the chain to the exact result state before handing back *)
    flush ~rounds:r.Seminaive.rounds ~fired:r.Seminaive.fired;
    (match reason with
    | Budget.Fault _ ->
      (* an injected fault skips the round's barrier, so the engine may
         have kept fire-phase facts no commit reported — diff them in *)
      let missing =
        Fact.Set.elements
          (Fact.Set.diff
             (Instance.facts r.Seminaive.instance)
             (Instance.facts !mirror))
      in
      if missing <> [] then
        Delta_log.append handle (encode_delta w ~rounds:0 ~fired:0 missing)
    | _ -> ());
    Delta_log.close handle);
  { instance = r.Seminaive.instance;
    outcome;
    rounds = rounds0 + r.Seminaive.rounds;
    fired = fired0 + r.Seminaive.fired;
    stats = r.Seminaive.stats
  }

let is_model r = r.outcome = Terminated

let pp_result ppf r =
  Fmt.pf ppf "@[<v>outcome: %s; rounds: %d; fired: %d; facts: %d@]"
    (match r.outcome with
    | Terminated -> "terminated"
    | Truncated reason ->
      "truncated: " ^ Budget.exhaustion_to_string reason)
    r.rounds r.fired
    (Instance.fact_count r.instance)
