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
(* Slot-array matching                                                 *)
(* ------------------------------------------------------------------ *)

(* An atom of a compiled rule: its relation's index record and, per
   position, the slot of the variable there. *)
type atom_plan = { rel : Fact_index.rel; slots : int array }

(* One conjunctive search over a slot environment of constant ids ([-1]
   unbound).  Pending goals keep their order, and [used] marks the ones
   the current path has matched; [trail] lists the slots the path bound,
   so backtracking unbinds exactly those.  [tuples] are per-goal buffers
   for ground probes.  [pos], [size] and [ground] carry a goal's
   probe from {!probe_goal} and {!pick} back without allocating. *)
type search = {
  idx : Fact_index.t;
  mutable env : int array;
  goals : atom_plan array;
  up_to : int array;
  used : bool array;
  tuples : int array array;
  trail : int array;
  mutable top : int;
  mutable pos : int;
  mutable size : int;
  mutable ground : bool;
}

let search idx ~n_slots goals up_to =
  { idx;
    env = Array.make n_slots (-1);
    goals;
    up_to;
    used = Array.make (Array.length goals) false;
    tuples = Array.map (fun a -> Array.make (Array.length a.slots) 0) goals;
    trail = Array.make n_slots 0;
    top = 0;
    pos = -1;
    size = 0;
    ground = false
  }

let unbind s mark =
  while s.top > mark do
    s.top <- s.top - 1;
    s.env.(s.trail.(s.top)) <- -1
  done

(* After an early exit left a path half-walked. *)
let reset s =
  unbind s 0;
  Array.fill s.used 0 (Array.length s.used) false

(* Extend the environment so that atom [a] maps onto fact [id]. *)
let bind s a id =
  let env = s.env and slots = a.slots in
  let n = Array.length slots in
  let rec go p =
    p = n
    ||
    let v = Fact_index.arg a.rel id p and sl = slots.(p) in
    let cur = env.(sl) in
    if cur < 0 then begin
      env.(sl) <- v;
      s.trail.(s.top) <- sl;
      s.top <- s.top + 1;
      go (p + 1)
    end
    else cur = v && go (p + 1)
  in
  go 0

(* The tightest probe for goal [g]: the bound position with the smallest
   (position, constant) bucket, the first on ties, or [-1] with the
   relation's size when nothing is bound. *)
let probe_goal s g =
  let a = s.goals.(g) in
  let pos = ref (-1) and size = ref 0 and ground = ref true in
  for p = 0 to Array.length a.slots - 1 do
    let c = s.env.(a.slots.(p)) in
    if c < 0 then ground := false
    else begin
      let n = Fact_index.bucket_size a.rel ~pos:p c in
      if !pos < 0 || n < !size then begin
        pos := p;
        size := n
      end
    end
  done;
  s.pos <- !pos;
  s.size <- (if !pos < 0 then Fact_index.rel_size a.rel else !size);
  s.ground <- !ground

(* Joins are ordered dynamically: the pending goal with the smallest
   estimate comes next, the earliest on ties. *)
let pick s =
  let best = ref (-1) and size = ref 0 and pos = ref (-1) and ground = ref false in
  for g = 0 to Array.length s.goals - 1 do
    if not s.used.(g) then begin
      probe_goal s g;
      if !best < 0 || s.size < !size then begin
        best := g;
        size := s.size;
        pos := s.pos;
        ground := s.ground
      end
    end
  done;
  s.pos <- !pos;
  s.ground <- !ground;
  !best

(* Call [k] on every extension of the environment that maps the
   [remaining] pending goals into the index, each goal within its round
   bound.  [k] may raise to stop the enumeration; the search state is then
   left for {!reset}. *)
let rec solve s remaining k =
  if remaining = 0 then k ()
  else begin
    let g = pick s in
    let a = s.goals.(g) and up_to = s.up_to.(g) in
    s.used.(g) <- true;
    (if s.ground then begin
       (* a fully bound goal needs only an O(1) membership test — never a
          bucket scan; activity checks are mostly this *)
       let t = s.tuples.(g) in
       for p = 0 to Array.length t - 1 do
         t.(p) <- s.env.(a.slots.(p))
       done;
       if Fact_index.mem_up_to s.idx a.rel ~up_to t then solve s (remaining - 1) k
     end
     else if s.pos >= 0 then begin
       let ids, n =
         Fact_index.lookup s.idx a.rel ~up_to ~pos:s.pos s.env.(a.slots.(s.pos))
       in
       for i = 0 to n - 1 do
         let mark = s.top in
         if bind s a ids.(i) then solve s (remaining - 1) k;
         unbind s mark
       done
     end
     else
       for id = 0 to Fact_index.all s.idx a.rel ~up_to - 1 do
         let mark = s.top in
         if bind s a id then solve s (remaining - 1) k;
         unbind s mark
       done);
    s.used.(g) <- false
  end

exception Stop
exception Found

(* ------------------------------------------------------------------ *)
(* Compiled rules                                                      *)
(* ------------------------------------------------------------------ *)

(* A rule compiled against one run's index.  Each variable is a slot:
   the body variables in order of first occurrence take the slots
   [0, n_univ), the existential ones the slots after them, sorted by name
   — the order their nulls are numbered in.  [key] is the position of the
   first rule of Σ equal to this one, so duplicate rules share fired keys.
   [head_search] holds the activity check's buffers; it is used only on the
   domain that runs the fire phase. *)
type plan = {
  tgd : Tgd.t;
  key : int;
  body : atom_plan array;
  head : atom_plan array;
  vars : Variable.t array;
  n_univ : int;
  frontier : int array;
  head_search : search;
}

let compile idx rules ~keyed i =
  let tgd = rules.(i) in
  let slots = ref [] and n = ref 0 in
  let find v = List.find_opt (fun (w, _) -> Variable.equal v w) !slots in
  let slot v = snd (Option.get (find v)) in
  let assign v =
    if find v = None then begin
      slots := (v, !n) :: !slots;
      incr n
    end
  in
  let var = function
    | Term.Var v -> v
    | Term.Const _ -> invalid_arg "Seminaive: constant in a tgd"
  in
  let each_var f atoms =
    List.iter (fun a -> Array.iter (fun t -> f (var t)) (Atom.args_arr a)) atoms
  in
  each_var assign (Tgd.body tgd);
  let n_univ = !n in
  let existential = ref [] in
  each_var
    (fun v -> if find v = None then existential := v :: !existential)
    (Tgd.head tgd);
  List.iter assign (List.sort_uniq Variable.compare !existential);
  let vars = Array.make !n (Variable.make "_") in
  List.iter (fun (v, sl) -> vars.(sl) <- v) !slots;
  let atom a =
    { rel = Fact_index.relation idx (Atom.rel a);
      slots = Array.map (fun t -> slot (var t)) (Atom.args_arr a)
    }
  in
  let head = Array.of_list (List.map atom (Tgd.head tgd)) in
  let frontier =
    List.init n_univ Fun.id
    |> List.filter (fun sl -> Array.exists (fun a -> Array.mem sl a.slots) head)
    |> Array.of_list
  in
  let key =
    if not keyed then i
    else begin
      let j = ref 0 in
      while not (Tgd.equal rules.(!j) tgd) do incr j done;
      !j
    end
  in
  { tgd;
    key;
    body = Array.of_list (List.map atom (Tgd.body tgd));
    head;
    vars;
    n_univ;
    frontier;
    head_search =
      search idx ~n_slots:!n head (Array.make (Array.length head) max_int)
  }

(* Active in the restricted-chase sense: no extension of the frontier
   binding maps the head into the current instance.  Only frontier and
   existential slots occur in the head, and the existential ones are
   unbound in a trigger, so the trigger's environment is the frontier
   binding.  Pays index probes but books no scan: only enumerated triggers
   count as scans, so the engine's scan totals are comparable with the
   naive loop's. *)
let is_active p env =
  let s = p.head_search in
  s.env <- env;
  match solve s (Array.length s.goals) (fun () -> raise_notrace Found) with
  | () -> true
  | exception Found ->
    reset s;
    false

(* Oblivious identification: the rule and its universal binding, as
   [Trigger.key]; Skolem identification: the rule and its frontier
   binding — two triggers agreeing on the frontier produce the same head
   facts, so they share one key (and one firing). *)
let trigger_key mode p env =
  let slots =
    match mode with
    | Skolem -> p.frontier
    | Restricted | Oblivious -> Array.init p.n_univ Fun.id
  in
  let key = Array.make (1 + Array.length slots) p.key in
  Array.iteri (fun q sl -> key.(q + 1) <- env.(sl)) slots;
  key

module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Trigger enumeration                                                 *)
(* ------------------------------------------------------------------ *)

(* The match phase of a round decomposes into independent tasks — one per
   rule in round 1, one per (rule, pivot position) afterwards.  Each task
   is a function of an abort poll (budget/cancellation — a task that
   observes a trip returns early, its partial trigger list is discarded
   with the round), the stats record its probes/scans should land in, and
   an index view wired to it; executing the tasks in order and
   concatenating reproduces the sequential trigger list exactly, which is
   what lets the pool run them on worker domains without changing any
   observable.  A trigger is its rule and a copy of the environment. *)
type match_task =
  abort:(unit -> bool) -> Stats.t -> Fact_index.t -> (plan * int array) list

let enumerate ~abort stats s out () =
  if abort () then raise_notrace Stop;
  stats.Stats.scans <- stats.Stats.scans + 1;
  out := Array.copy s.env :: !out

(* Round 1: every body homomorphism into the input facts (stamp 0). *)
let initial_task p : match_task =
 fun ~abort stats idx ->
  let nb = Array.length p.body in
  let s = search idx ~n_slots:(Array.length p.vars) p.body (Array.make nb 0) in
  let out = ref [] in
  (try solve s nb (enumerate ~abort stats s out) with Stop -> ());
  List.rev_map (fun env -> (p, env)) !out

(* Round r > 1: stratified pivoting through the delta.  For pivot position
   [j], atoms before [j] match rounds ≤ r-2, the pivot matches a delta fact
   (stamp r-1, the fact ids [lo, hi)), atoms after [j] match rounds ≤ r-1;
   the pivot cases partition the triggers that touch the delta. *)
let delta_task p j ~round (lo, hi) : match_task =
 fun ~abort stats idx ->
  let nb = Array.length p.body in
  let goals =
    Array.init (nb - 1) (fun g -> p.body.(if g < j then g else g + 1))
  in
  let up_to =
    Array.init (nb - 1) (fun g -> if g < j then round - 2 else round - 1)
  in
  let s = search idx ~n_slots:(Array.length p.vars) goals up_to in
  let pivot = p.body.(j) in
  let out = ref [] in
  for id = lo to hi - 1 do
    if not (abort ()) then begin
      if bind s pivot id then
        (try solve s (nb - 1) (enumerate ~abort stats s out)
         with Stop -> reset s);
      unbind s 0
    end
  done;
  List.rev_map (fun env -> (p, env)) !out

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

(* The result: the input plus each relation's derived range, and the
   input's domain plus the nulls that landed in facts, [Null (base + 1)]
   to [Null last]. *)
let build_result idx inst ~base ~last =
  let derived =
    List.filter_map
      (fun r ->
        let lo, hi = Fact_index.derived r in
        if lo = hi then None
        else
          let facts = List.init (hi - lo) (fun k -> Fact_index.fact idx r (lo + k)) in
          Some (Fact_index.rel_relation r, Fact.Set.of_list facts))
      (Fact_index.relations idx)
  in
  match derived with
  | [] -> inst
  | _ ->
    let nulls = List.init (last - base) (fun k -> Constant.null (base + 1 + k)) in
    Instance.extend inst ~nulls:(Constant.Set.of_list nulls) derived

let run ~mode ?(budget = Budget.default) ?on_fire ?on_commit ?pool ?chunk sigma
    inst =
  let stats = Stats.create () in
  let idx = Fact_index.create ~stats () in
  (* Rules are compiled when one of their tasks is first built, on this
     domain: a rule whose body never meets a fact costs no compilation. *)
  let rules = Array.of_list sigma in
  let plans = Array.make (Array.length rules) None in
  let plan i =
    match plans.(i) with
    | Some p -> p
    | None ->
      let p = compile idx rules ~keyed:(mode <> Restricted) i in
      plans.(i) <- Some p;
      p
  in
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
  let rel_has f a =
    match Fact_index.find_relation idx (Atom.rel a) with
    | Some r -> f r
    | None -> false
  in
  (* Round 1.  A body atom over an empty relation leaves a rule no
     trigger; the join would find that out with exactly one probe (the
     empty relation is the cheapest goal), so book that probe and build
     no task. *)
  let initial_tasks () =
    let empty a = not (rel_has (fun r -> Fact_index.rel_size r > 0) a) in
    let tasks = ref [] in
    Array.iteri
      (fun i tgd ->
        if List.exists empty (Tgd.body tgd) then
          stats.Stats.probes <- stats.Stats.probes + 1
        else tasks := initial_task (plan i) :: !tasks)
      rules;
    List.rev !tasks
  in
  let delta_tasks ~round =
    let fresh r =
      let lo, hi = Fact_index.delta r in
      lo < hi
    in
    let tasks = ref [] in
    Array.iteri
      (fun i tgd ->
        if Option.is_some plans.(i) || List.exists (rel_has fresh) (Tgd.body tgd)
        then
          Array.iteri
            (fun j a ->
              if fresh a.rel then
                tasks :=
                  delta_task (plan i) j ~round (Fact_index.delta a.rel) :: !tasks)
            (plan i).body)
      rules;
    List.rev !tasks
  in
  (* Does any active trigger remain?  Used only when the round budget runs
     out (mirrors the naive loop's final [Trigger.active] sweep). *)
  let some_active_trigger () =
    let exception Active in
    try
      Array.iteri
        (fun i _ ->
          let p = plan i in
          let nb = Array.length p.body in
          let s =
            search idx ~n_slots:(Array.length p.vars) p.body (Array.make nb max_int)
          in
          solve s nb (fun () ->
              stats.Stats.scans <- stats.Stats.scans + 1;
              if is_active p s.env then raise_notrace Active))
        rules;
      false
    with Active -> true
  in
  let t_load = Unix.gettimeofday () in
  (* the input, one relation at a time, through one reused tuple buffer *)
  List.iter
    (fun rel ->
      let facts = Instance.facts_of inst rel in
      if not (Fact.Set.is_empty facts) then begin
        let r = Fact_index.relation idx rel in
        let buf = Array.make (Relation.arity rel) 0 in
        Fact.Set.iter
          (fun f ->
            Array.iteri
              (fun p c -> buf.(p) <- Fact_index.intern idx c)
              (Fact.tuple_arr f);
            ignore (Fact_index.add idx r ~round:0 buf))
          facts
      end)
    (Schema.relations (Instance.schema inst));
  (* barrier 0: round 1 matches the input facts, not a delta *)
  Fact_index.commit idx;
  stats.Stats.build_time <- Unix.gettimeofday () -. t_load;
  (* The result is built from the index after the loop.  Only [on_commit]
     needs the round's new facts as a list (newest first); [on_fire]'s
     facts are built for its call. *)
  let round_facts = ref [] in
  let base_null = max_null inst in
  let null_counter = ref base_null in
  (* the last null of a completed fire: an [on_fire] that halts after null
     invention leaves nulls in no fact, and they stay out of the domain *)
  let last_null = ref base_null in
  let fired_keys : unit Key_tbl.t = Key_tbl.create 256 in
  let delta_size = ref (Fact_index.fact_count idx) in
  let round = ref 0 in
  let fired = ref 0 in
  let trip = ref None in
  let set_trip r = if !trip = None then trip := Some r in
  let fire_poll = ref 0 in
  let first = ref true in
  let fire (p, env) =
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
      | Restricted -> is_active p env
      | Oblivious | Skolem ->
        let key = trigger_key mode p env in
        if Key_tbl.mem fired_keys key then false
        else begin
          Key_tbl.add fired_keys key ();
          true
        end
    in
    if fire_it then begin
      (match Budget.spend_fuel budget 1 with
      | Some r ->
        set_trip r;
        raise Exit
      | None -> ());
      for sl = p.n_univ to Array.length env - 1 do
        incr null_counter;
        env.(sl) <- Fact_index.fresh idx (Constant.null !null_counter)
      done;
      let tuples = p.head_search.tuples in
      Array.iteri
        (fun h a -> Array.iteri (fun q sl -> tuples.(h).(q) <- env.(sl)) a.slots)
        p.head;
      let to_fact h = Fact_index.to_fact idx p.head.(h).rel tuples.(h) in
      (* [on_fire] sees the body homomorphism before null invention, as in
         [Chase], and every grounded head fact, new or not *)
      let facts =
        match on_fire with
        | None -> None
        | Some f ->
          let facts = Array.init (Array.length p.head) to_fact in
          let hom =
            Binding.of_list
              (List.init p.n_univ (fun sl ->
                   (p.vars.(sl), Fact_index.constant idx env.(sl))))
          in
          (try f p.tgd hom (Array.to_list facts)
           with Halt ->
             set_trip Budget.Cancelled;
             raise Exit);
          Some facts
      in
      incr fired;
      stats.Stats.fired <- stats.Stats.fired + 1;
      Array.iteri
        (fun h a ->
          if Fact_index.add idx a.rel ~round:!round tuples.(h) then begin
            incr delta_size;
            if Option.is_some on_commit then
              round_facts :=
                (match facts with Some fs -> fs.(h) | None -> to_fact h)
                :: !round_facts
          end)
        p.head;
      last_null := !null_counter;
      (* the index holds the input facts too *)
      if Fact_index.fact_count idx > budget.Budget.max_facts then begin
        set_trip Budget.Facts;
        raise Exit
      end
    end
  in
  (try
     while
       (!first || !delta_size > 0)
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
           run_tasks
             (if !round = 1 then initial_tasks () else delta_tasks ~round:!round)
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
           delta_size := 0;
           (* a fault here still runs the barrier below, so the facts
              the round inserted are committed and reported like any
              other partial round's *)
           (try List.iter fire triggers with
            | Exit -> ()
            | Chaos.Injected site -> set_trip (Budget.Fault site));
           let t2 = Unix.gettimeofday () in
           stats.Stats.fire_time <- stats.Stats.fire_time +. (t2 -. t1);
           (* round barrier: this round's facts become the next round's
              pivot ranges, and are handed back in insertion order *)
           Fact_index.commit idx;
           stats.Stats.merge_time <-
             stats.Stats.merge_time +. (Unix.gettimeofday () -. t2);
           Option.iter
             (fun f ->
               let dflat = List.rev !round_facts in
               round_facts := [];
               f ~round:!round ~fired:!fired dflat)
             on_commit;
           stats.Stats.delta_facts <- stats.Stats.delta_facts + !delta_size)
     done
   with Chaos.Injected site -> set_trip (Budget.Fault site));
  stats.Stats.rounds <- !round;
  let outcome =
    match !trip with
    | Some r -> Truncated r
    | None ->
      if !delta_size = 0 then Terminated
      else if some_active_trigger () then Truncated Budget.Rounds
      else Terminated
  in
  let t_build = Unix.gettimeofday () in
  let instance = build_result idx inst ~base:base_null ~last:!last_null in
  stats.Stats.build_time <-
    stats.Stats.build_time +. (Unix.gettimeofday () -. t_build);
  Stats.add ~into:(Stats.global ()) stats;
  { instance; outcome; rounds = !round; fired = !fired; stats }
