type policy = {
  max_restarts : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  wedge_timeout_s : float option;
  tick_s : float;
}

type state =
  | Idle
  | Busy of float  (* since *)
  | Dead of float  (* respawn not before *)

type slot = {
  mutable state : state;
  mutable respawns : int;  (* respawns of this slot, drives its backoff *)
}

type t = {
  policy : policy;
  slots : slot array;
  mutable restarts : int;
  mutable deaths : int;
  mutable wedged : int;
  mutable breaker : bool;
}

let create policy ~slots =
  if slots < 1 then invalid_arg "Supervisor.create: slots must be >= 1";
  { policy;
    slots = Array.init slots (fun _ -> { state = Idle; respawns = 0 });
    restarts = 0;
    deaths = 0;
    wedged = 0;
    breaker = false
  }

type action =
  | Respawn of int
  | Abandon of int
  | Trip_breaker

let backoff t slot =
  Float.min t.policy.backoff_cap_s
    (t.policy.backoff_base_s *. (2. ** float_of_int slot.respawns))

let wedged_at t ~now slot =
  match (slot.state, t.policy.wedge_timeout_s) with
  | Busy since, Some timeout -> now -. since > timeout
  | _ -> false

let decide t ~now =
  let acts = ref [] in
  let trip_needed = ref false in
  Array.iteri
    (fun i slot ->
      if wedged_at t ~now slot then acts := Abandon i :: !acts
      else
        match slot.state with
        | Dead until when (not t.breaker) && now >= until ->
          if t.restarts >= t.policy.max_restarts then trip_needed := true
          else acts := Respawn i :: !acts
        | _ -> ())
    t.slots;
  let acts = List.rev !acts in
  if !trip_needed then
    (* out of restart budget: degrade instead of respawning anything *)
    Trip_breaker :: List.filter (function Respawn _ -> false | _ -> true) acts
  else acts

let note_busy t i ~now = t.slots.(i).state <- Busy now

(* A slot's first start uses no restart budget and leaves its backoff at
   the base delay. *)
let note_started = note_busy

let note_spawned t i =
  let slot = t.slots.(i) in
  slot.state <- Idle;
  slot.respawns <- slot.respawns + 1;
  t.restarts <- t.restarts + 1

let note_death t i ~now =
  let slot = t.slots.(i) in
  slot.state <- Dead (now +. backoff t slot);
  t.deaths <- t.deaths + 1

let note_wedged t i ~now =
  note_death t i ~now;
  t.wedged <- t.wedged + 1

let trip t = t.breaker <- true
let tripped t = t.breaker

type health = {
  alive : int;
  deaths : int;
  restarts : int;
  wedged : int;
  breaker_tripped : bool;
}

let health t =
  let alive =
    Array.fold_left
      (fun n s -> match s.state with Dead _ -> n | Idle | Busy _ -> n + 1)
      0 t.slots
  in
  { alive;
    deaths = t.deaths;
    restarts = t.restarts;
    wedged = t.wedged;
    breaker_tripped = t.breaker
  }
