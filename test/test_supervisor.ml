(* Shard supervision: the pure state machine (Tgd_engine.Supervisor)
   under synthetic clocks — backoff ladder, breaker, wedge abandonment —
   and a pool shut down after injected chunk faults, which must never
   hang. *)

open Tgd_engine
open Helpers

let policy =
  { Supervisor.max_restarts = 3;
    backoff_base_s = 1.0;
    backoff_cap_s = 4.0;
    wedge_timeout_s = Some 10.0;
    tick_s = 1e-3
  }

(* -- the state machine under a synthetic clock --------------------------- *)

let test_backoff_ladder () =
  let sup = Supervisor.create policy ~slots:2 in
  check_int "all alive at start" 2 (Supervisor.health sup).Supervisor.alive;
  check_bool "nothing to do" true (Supervisor.decide sup ~now:0. = []);
  Supervisor.note_death sup 0 ~now:0.;
  check_int "one alive" 1 (Supervisor.health sup).Supervisor.alive;
  (* first backoff is base = 1s: no respawn before it expires *)
  check_bool "respawn not yet due" true (Supervisor.decide sup ~now:0.5 = []);
  (match Supervisor.decide sup ~now:1.0 with
  | [ Supervisor.Respawn 0 ] -> ()
  | _ -> Alcotest.fail "expected Respawn 0 once the backoff expired");
  Supervisor.note_spawned sup 0;
  check_bool "acted: nothing left to do" true
    (Supervisor.decide sup ~now:1.0 = []);
  (* second death on the same slot doubles the backoff *)
  Supervisor.note_death sup 0 ~now:2.0;
  check_bool "2s backoff pending" true (Supervisor.decide sup ~now:3.5 = []);
  (match Supervisor.decide sup ~now:4.1 with
  | [ Supervisor.Respawn 0 ] -> ()
  | _ -> Alcotest.fail "expected the doubled backoff to expire at 4s");
  ignore (Supervisor.note_spawned sup 0);
  (* third death: backoff would be 4s (cap); the cap binds from here on *)
  Supervisor.note_death sup 0 ~now:5.0;
  check_bool "capped backoff pending" true (Supervisor.decide sup ~now:8.9 = []);
  match Supervisor.decide sup ~now:9.0 with
  | [ Supervisor.Respawn 0 ] -> ()
  | _ -> Alcotest.fail "expected capped backoff to expire at 9s"

let test_breaker_trips_after_budget () =
  let sup = Supervisor.create policy ~slots:1 in
  (* burn the whole restart budget *)
  let now = ref 0. in
  for _ = 1 to policy.Supervisor.max_restarts do
    Supervisor.note_death sup 0 ~now:!now;
    now := !now +. 100.;
    (match Supervisor.decide sup ~now:!now with
    | [ Supervisor.Respawn 0 ] -> ignore (Supervisor.note_spawned sup 0)
    | _ -> Alcotest.fail "expected a respawn within budget")
  done;
  check_int "restart budget consumed" policy.Supervisor.max_restarts
    (Supervisor.health sup).Supervisor.restarts;
  (* one more death: the decision is to trip, not to respawn *)
  Supervisor.note_death sup 0 ~now:!now;
  (match Supervisor.decide sup ~now:(!now +. 100.) with
  | [ Supervisor.Trip_breaker ] -> Supervisor.trip sup
  | _ -> Alcotest.fail "expected Trip_breaker after the budget");
  check_bool "tripped" true (Supervisor.tripped sup);
  check_bool "health reports it" true
    (Supervisor.health sup).Supervisor.breaker_tripped;
  (* tripped: no more respawns, ever *)
  check_bool "no respawns post-trip" true
    (Supervisor.decide sup ~now:(!now +. 1000.) = [])

let test_wedge_abandon () =
  let sup = Supervisor.create policy ~slots:2 in
  Supervisor.note_busy sup 1 ~now:0.;
  check_bool "busy within timeout" true (Supervisor.decide sup ~now:5. = []);
  (match Supervisor.decide sup ~now:11. with
  | [ Supervisor.Abandon 1 ] -> ()
  | _ -> Alcotest.fail "expected Abandon for the wedged slot");
  Supervisor.note_wedged sup 1 ~now:11.;
  let h = Supervisor.health sup in
  check_int "wedge counted" 1 h.Supervisor.wedged;
  check_int "wedge is also a death" 1 h.Supervisor.deaths;
  (* abandons must keep flowing after the breaker trips (joins depend
     on wedged chunks failing), respawns must not *)
  Supervisor.trip sup;
  Supervisor.note_busy sup 0 ~now:20.;
  match Supervisor.decide sup ~now:40. with
  | [ Supervisor.Abandon 0 ] -> ()
  | _ -> Alcotest.fail "expected Abandon even with the breaker tripped"

(* Fleet's call order: [Fleet.start] reports each shard's first start
   with [note_started]; the monitor reports [note_death] on a reap and, on
   [Respawn], [note_spawned] then [note_busy].  First starts spend no
   restart budget and leave every backoff at the base delay. *)
let test_first_start_is_not_a_restart () =
  let slots = 4 in
  (* no heartbeats are replayed, so leave wedge detection off *)
  let policy = { policy with Supervisor.wedge_timeout_s = None } in
  let sup = Supervisor.create policy ~slots in
  for i = 0 to slots - 1 do
    Supervisor.note_started sup i ~now:0.
  done;
  check_int "no restarts after the first starts" 0
    (Supervisor.health sup).Supervisor.restarts;
  check_int "all alive" slots (Supervisor.health sup).Supervisor.alive;
  (* every slot dies once, one after another: each is due after exactly
     backoff_base_s, and max_restarts = 3 covers the first three *)
  let respawn i ~died =
    Supervisor.note_death sup i ~now:died;
    check_bool "not due before the base delay" true
      (Supervisor.decide sup ~now:(died +. 0.99) = []);
    match Supervisor.decide sup ~now:(died +. policy.Supervisor.backoff_base_s) with
    | [ Supervisor.Respawn j ] when j = i ->
      Supervisor.note_spawned sup i;
      Supervisor.note_busy sup i ~now:(died +. 1.)
    | _ -> Alcotest.failf "slot %d: expected Respawn after backoff_base_s" i
  in
  for i = 0 to policy.Supervisor.max_restarts - 1 do
    respawn i ~died:(10. *. float_of_int (i + 1))
  done;
  let h = Supervisor.health sup in
  check_int "one restart per death" policy.Supervisor.max_restarts
    h.Supervisor.restarts;
  check_bool "breaker intact" false h.Supervisor.breaker_tripped;
  (* the fourth death is past the budget *)
  Supervisor.note_death sup 3 ~now:100.;
  match Supervisor.decide sup ~now:101. with
  | [ Supervisor.Trip_breaker ] -> ()
  | _ -> Alcotest.fail "expected Trip_breaker once max_restarts is spent"

(* -- the live pool under injected chunk faults --------------------------- *)

let test_shutdown_after_deaths_no_hang () =
  (* exercised repeatedly across fault schedules: create, kill workers,
     shut down.  Batches may fail (typed) — with_pool returning at all is
     the assertion; the alcotest timeout is the hang detector. *)
  for seed = 0 to 4 do
    Pool.with_pool ~jobs:3 (fun pool ->
        try
          ignore
            (Chaos.with_config
               { Chaos.default_config with Chaos.seed; raise_p = 0.7 }
               (fun () ->
                 Pool.parallel_map pool ~chunk:1 succ (Seq.init 30 Fun.id)))
        with Chaos.Injected _ -> ())
  done

let suite =
  [ case "backoff ladder under a synthetic clock" test_backoff_ladder;
    case "breaker trips when the restart budget is gone"
      test_breaker_trips_after_budget;
    case "wedged slots are abandoned" test_wedge_abandon;
    case "first starts are not restarts (Fleet's call order)"
      test_first_start_is_not_a_restart;
    case "shutdown after deaths never hangs" test_shutdown_after_deaths_no_hang
  ]
