open Tgd_syntax
open Tgd_instance

type mode =
  | Restricted
  | Oblivious
  | Skolem

exception Halt

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

(* ------------------------------------------------------------------ *)
(* Index-backed conjunctive matching                                   *)
(* ------------------------------------------------------------------ *)

(* A goal is an atom together with the round bound its matches must respect
   (snapshot semantics / delta stratification). *)
type goal = { atom : Atom.t; up_to : int }

(* The tightest probe available for [atom] under [binding]: the bound
   position with the smallest bucket, if any position is bound. *)
let best_probe idx binding atom =
  let args = Atom.args_arr atom in
  let best = ref None in
  Array.iteri
    (fun pos t ->
      let const =
        match t with
        | Term.Const c -> Some c
        | Term.Var v -> Binding.find v binding
      in
      match const with
      | None -> ()
      | Some c ->
        let size = Fact_index.bucket_size idx (Atom.rel atom) ~pos c in
        (match !best with
        | Some (_, _, s) when s <= size -> ()
        | _ -> best := Some (pos, c, size)))
    args;
  !best

let estimate idx binding atom =
  match best_probe idx binding atom with
  | Some (_, _, size) -> size
  | None -> Fact_index.rel_size idx (Atom.rel atom)

let candidates idx binding g =
  match best_probe idx binding g.atom with
  | Some (pos, c, _) -> Fact_index.lookup idx ~up_to:g.up_to (Atom.rel g.atom) ~pos c
  | None -> Fact_index.all idx ~up_to:g.up_to (Atom.rel g.atom)

(* Pull the cheapest goal to the front (stable for ties). *)
let pick_best idx binding goals =
  match goals with
  | [] | [ _ ] -> goals
  | _ ->
    let scored = List.map (fun g -> (estimate idx binding g.atom, g)) goals in
    let best =
      List.fold_left (fun acc (s, _) -> min acc s) max_int scored
    in
    let chosen = ref None in
    let rest =
      List.filter_map
        (fun (s, g) ->
          if s = best && !chosen = None then begin
            chosen := Some g;
            None
          end
          else Some g)
        scored
    in
    (match !chosen with Some g -> g :: rest | None -> goals)

let rec solve idx binding goals : Binding.t Seq.t =
  match pick_best idx binding goals with
  | [] -> Seq.return binding
  | g :: rest -> (
    (* A goal whose atom is fully bound needs only an O(1) membership test
       — never a bucket (let alone full-relation) scan.  This is the
       dominant cost of activity checks, whose head atoms are usually
       ground under the frontier binding. *)
    match Binding.ground_atom binding g.atom with
    | Some f ->
      if Fact_index.mem_up_to idx ~up_to:g.up_to f then solve idx binding rest
      else Seq.empty
    | None ->
      candidates idx binding g
      |> Seq.filter_map (fun f -> Hom.match_atom binding g.atom f)
      |> Seq.concat_map (fun b -> solve idx b rest))

let goals_up_to up_to atoms = List.map (fun atom -> { atom; up_to }) atoms

let exists_extension idx partial atoms =
  not (Seq.is_empty (solve idx partial (goals_up_to max_int atoms)))

(* Active in the restricted-chase sense: no extension of the frontier
   binding maps the head into the current instance.  Pays index probes but
   books no scan: only enumerated triggers count as scans, so the engine's
   scan totals are comparable with the naive loop's. *)
let is_active idx tgd hom =
  let partial = Binding.restrict (Tgd.frontier tgd) hom in
  not (exists_extension idx partial (Tgd.head tgd))

(* Same stable identification as [Trigger.key]. *)
let trigger_key tgd hom =
  Fmt.str "%a|%a" Tgd.pp tgd Binding.pp
    (Binding.restrict (Tgd.universal_vars tgd) hom)

(* Skolem-chase identification: two triggers agreeing on the frontier
   produce the same head facts, so they share one key (and one firing). *)
let skolem_key tgd hom =
  Fmt.str "%a|%a" Tgd.pp tgd Binding.pp
    (Binding.restrict (Tgd.frontier tgd) hom)

(* ------------------------------------------------------------------ *)
(* Trigger enumeration                                                 *)
(* ------------------------------------------------------------------ *)

(* The match phase of a round decomposes into independent tasks — one per
   tgd in round 1, one per (tgd, pivot position) afterwards.  Each task is
   a function of an abort poll (budget/cancellation — a task that observes
   a trip returns early, its partial trigger list is discarded with the
   round), the stats record its probes/scans should land in, and an index
   view wired to it; executing the tasks in order and concatenating
   reproduces the sequential trigger list exactly, which is what lets the
   pool run them on worker domains without changing any observable. *)
type match_task =
  abort:(unit -> bool) -> Stats.t -> Fact_index.t -> (Tgd.t * Binding.t) list

(* Round 1: every body homomorphism into the input facts (stamp 0). *)
let initial_tasks sigma : match_task list =
  List.map
    (fun tgd ~abort stats idx ->
      solve idx Binding.empty (goals_up_to 0 (Tgd.body tgd))
      |> Seq.take_while (fun _ -> not (abort ()))
      |> Seq.map (fun h ->
             stats.Stats.scans <- stats.Stats.scans + 1;
             (tgd, h))
      |> List.of_seq)
    sigma

(* Round r > 1: stratified pivoting through the delta.  For pivot position
   [j], atoms before [j] match rounds ≤ r-2, the pivot matches a delta fact
   (stamp r-1), atoms after [j] match rounds ≤ r-1; the pivot cases
   partition the triggers that touch the delta. *)
let delta_tasks sigma ~round ~delta_by_rel : match_task list =
  let old_limit = round - 2 and recent_limit = round - 1 in
  List.concat_map
    (fun tgd ->
      let body = Array.of_list (Tgd.body tgd) in
      List.filter_map Fun.id
        (List.init (Array.length body) (fun j ->
             let pivot = body.(j) in
             match Hashtbl.find_opt delta_by_rel (Atom.rel pivot) with
             | None -> None
             | Some delta_facts ->
               Some
                 (fun ~abort stats idx ->
                   List.concat_map
                     (fun f ->
                       if abort () then []
                       else
                       match Hom.match_atom Binding.empty pivot f with
                       | None -> []
                       | Some partial ->
                         let goals =
                           List.concat
                             (List.init (Array.length body) (fun i ->
                                  if i = j then []
                                  else
                                    [ { atom = body.(i);
                                        up_to =
                                          (if i < j then old_limit
                                           else recent_limit)
                                      } ]))
                         in
                         solve idx partial goals
                         |> Seq.take_while (fun _ -> not (abort ()))
                         |> Seq.map (fun h ->
                                stats.Stats.scans <- stats.Stats.scans + 1;
                                (tgd, h))
                         |> List.of_seq)
                     delta_facts))))
    sigma

(* Does any active trigger remain?  Used only when the round budget runs out
   (mirrors the naive loop's final [Trigger.active] sweep). *)
let some_active_trigger stats idx sigma =
  List.exists
    (fun tgd ->
      solve idx Binding.empty (goals_up_to max_int (Tgd.body tgd))
      |> Seq.exists (fun h ->
             stats.Stats.scans <- stats.Stats.scans + 1;
             is_active idx tgd h))
    sigma

(* ------------------------------------------------------------------ *)
(* Saturation loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-task abort poll: cheap token read per call, full budget check
   (clock, memory, fuel) every 256th — the full check is the one that
   actually trips the token on a deadline, so one long-running match task
   cannot outlive the budget by more than a stride. *)
let make_abort budget =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n land 255 = 0 then Budget.check budget <> None
    else Budget.cancelled budget <> None

let run ~mode ?(budget = Budget.default) ?(on_fire = fun _ _ _ -> ())
    ?(on_commit = fun ~round:_ _ -> ()) ?pool ?chunk sigma inst =
  let stats = Stats.create () in
  let idx = Fact_index.create ~stats () in
  (* Run one match task against a private stats record and an index view
     wired to it, so tasks running on pool workers never share a mutable
     counter; merging the records in task order afterwards reproduces the
     sequential totals. *)
  let exec_task task =
    let ts = Stats.create () in
    if Budget.cancelled budget <> None then ([], ts)
    else begin
      ignore (Budget.check budget);
      let view = Fact_index.with_stats idx ts in
      (task ~abort:(make_abort budget) ts view, ts)
    end
  in
  let run_tasks tasks =
    let results =
      match pool with
      | None -> List.map exec_task tasks
      | Some p ->
        Pool.parallel_map p ?chunk ~cancel:(Budget.token budget) exec_task
          (List.to_seq tasks)
    in
    List.iter (fun (_, ts) -> Stats.add ~into:stats ts) results;
    List.concat_map fst results
  in
  let initial_facts = Instance.fact_list inst in
  List.iter (fun f -> ignore (Fact_index.add idx ~round:0 f)) initial_facts;
  (* barrier 0: round 1 matches the input facts, not a delta *)
  ignore (Fact_index.commit idx);
  (* facts derived so far, newest first; the result instance is built from
     them once, after the loop *)
  let added = ref [] in
  let null_counter = ref (max_null inst) in
  let fired_keys : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let delta = ref initial_facts in
  let delta_by_rel = ref (Hashtbl.create 0) in
  let round = ref 0 in
  let fired = ref 0 in
  let trip = ref None in
  let set_trip r = if !trip = None then trip := Some r in
  let fire_poll = ref 0 in
  let first = ref true in
  (try
     while
       (!first || !delta <> [])
       && !trip = None
       && !round < budget.Budget.max_rounds
     do
       first := false;
       match Budget.check budget with
       | Some r -> set_trip r
       | None ->
         incr round;
         let t0 = Unix.gettimeofday () in
         let triggers =
           if !round = 1 then run_tasks (initial_tasks sigma)
           else
             (* the previous round's barrier commit already grouped its
                delta per relation — no per-round rebuild *)
             run_tasks
               (delta_tasks sigma ~round:!round ~delta_by_rel:!delta_by_rel)
         in
         let t1 = Unix.gettimeofday () in
         stats.Stats.match_time <- stats.Stats.match_time +. (t1 -. t0);
         (* A trip during matching may have cut the trigger list anywhere
            (including mid-task under the pool), so the whole round is
            dropped: the partial result is always the instance as of the
            last fully committed round — one deterministic prefix,
            whatever [jobs] was. *)
         (match Budget.cancelled budget with
         | Some r -> set_trip r
         | None ->
           (try
              List.iter
                (fun (tgd, hom) ->
                  Chaos.step ~site:"chase.fire";
                  incr fire_poll;
                  if !fire_poll land 15 = 0 then (
                    match Budget.check budget with
                    | Some r ->
                      set_trip r;
                      raise Exit
                    | None -> ());
                  let fire_it =
                    match mode with
                    | Oblivious | Skolem ->
                      let key =
                        match mode with
                        | Skolem -> skolem_key tgd hom
                        | _ -> trigger_key tgd hom
                      in
                      if Hashtbl.mem fired_keys key then false
                      else begin
                        Hashtbl.add fired_keys key ();
                        true
                      end
                    | Restricted -> is_active idx tgd hom
                  in
                  if fire_it then begin
                    (match Budget.spend_fuel budget 1 with
                    | Some r ->
                      set_trip r;
                      raise Exit
                    | None -> ());
                    let h =
                      Variable.Set.fold
                        (fun z acc ->
                          incr null_counter;
                          Binding.add z (Constant.null !null_counter) acc)
                        (Tgd.existential_vars tgd)
                        hom
                    in
                    match Binding.ground_atoms h (Tgd.head tgd) with
                    | None ->
                      assert false (* body ∪ existential vars cover the head *)
                    | Some facts ->
                      (try on_fire tgd hom facts
                       with Halt ->
                         set_trip Budget.Cancelled;
                         raise Exit);
                      incr fired;
                      stats.Stats.fired <- stats.Stats.fired + 1;
                      List.iter
                        (fun f ->
                          if Fact_index.add idx ~round:!round f then
                            added := f :: !added)
                        facts;
                      (* the index holds the input facts too *)
                      if Fact_index.fact_count idx > budget.Budget.max_facts
                      then begin
                        set_trip Budget.Facts;
                        raise Exit
                      end
                  end)
                triggers
            with Exit -> ());
           let t2 = Unix.gettimeofday () in
           stats.Stats.fire_time <- stats.Stats.fire_time +. (t2 -. t1);
           (* round barrier: hand back this round's facts in insertion
              order; the grouping feeds the next round's pivot tasks
              directly *)
           let dflat, dby_rel = Fact_index.commit idx in
           stats.Stats.merge_time <-
             stats.Stats.merge_time +. (Unix.gettimeofday () -. t2);
           on_commit ~round:!round dflat;
           delta := dflat;
           delta_by_rel := dby_rel;
           stats.Stats.delta_facts <- stats.Stats.delta_facts + List.length !delta)
     done
   with Chaos.Injected site -> set_trip (Budget.Fault site));
  stats.Stats.rounds <- !round;
  let outcome =
    match !trip with
    | Some r -> Truncated r
    | None ->
      if !delta = [] then Terminated
      else if some_active_trigger stats idx sigma then Truncated Budget.Rounds
      else Terminated
  in
  let instance =
    match !added with
    | [] -> inst
    | fs ->
      Instance.union inst (Instance.of_facts (Instance.schema inst) (List.rev fs))
  in
  Stats.add ~into:(Stats.global ()) stats;
  { instance; outcome; rounds = !round; fired = !fired; stats }
