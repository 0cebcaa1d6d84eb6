(* Fault injection (Tgd_engine.Chaos): every injected fault surfaces as a
   typed outcome at a run boundary — never an escaped exception, never a
   hung pool — and fault-free chaos (delays, allocation spikes) perturbs
   timing without changing any result. *)

open Tgd_instance
open Tgd_engine
open Helpers
module Chase = Tgd_chase.Chase
module Rewrite = Tgd_core.Rewrite

let s = schema [ ("E", 2) ]
let sigma_tc = [ tgd "E(x,y), E(y,z) -> E(x,z)." ]
let chain = inst ~schema:s "E(a,b). E(b,c). E(c,d). E(d,e)."

let always_raise = { Chaos.default_config with Chaos.raise_p = 1.0 }

let perturb_only =
  { Chaos.default_config with
    Chaos.delay_p = 0.3;
    delay_s = 1e-4;
    alloc_p = 0.3;
    alloc_words = 16_384
  }

let fault_site r =
  match r.Chase.outcome with
  | Chase.Truncated (Budget.Fault site) -> site
  | _ -> Alcotest.failf "expected a Fault trip, got %a" Chase.pp_result r

(* -- faults become typed truncations ------------------------------------ *)

let test_chase_fault_typed () =
  let r =
    Chaos.with_config always_raise (fun () -> Chase.restricted sigma_tc chain)
  in
  let site = fault_site r in
  check_bool "site names the firing loop" true
    (String.length site >= 10 && String.sub site 0 10 = "chase.fire");
  (* the instance is still a committed, sound prefix *)
  check_bool "contains input" true (Instance.subset chain r.Chase.instance);
  check_bool "fault results are not cacheable" false
    (Chase.deterministic_result r);
  check_bool "config uninstalled on exit" false (Chaos.active ())

let test_naive_chase_fault_typed () =
  let r =
    Chaos.with_config always_raise (fun () ->
        Chase.restricted ~naive:true sigma_tc chain)
  in
  let site = fault_site r in
  check_bool "site names the naive loop" true
    (String.length site >= 11 && String.sub site 0 11 = "chase.naive");
  check_bool "contains input" true (Instance.subset chain r.Chase.instance)

let test_parallel_chase_fault_typed () =
  (* jobs > 1 adds the pool.chunk site; the fault must still come back as a
     typed trip on the submitting domain, with the pool drained *)
  let r =
    Chaos.with_config always_raise (fun () ->
        Chase.restricted ~jobs:4 sigma_tc chain)
  in
  ignore (fault_site r);
  (* the engine is healthy afterwards: the same pool-backed chase completes *)
  let clean = Chase.restricted ~jobs:4 sigma_tc chain in
  check_bool "pool usable after fault" true (Chase.is_model clean)

let test_chaos_uses_warm_pool () =
  (* chaos runs borrow the shared warm pool: a [pool.chunk] fault fails
     the batch it hits and leaves the pool as it was *)
  let chunks () = (Pool.counters (Pool.warm ~jobs:4 ())).Pool.chunks in
  let pool = Pool.warm ~jobs:4 () in
  let c0 = chunks () in
  let r =
    Chaos.with_config always_raise (fun () ->
        Chase.restricted ~jobs:4 sigma_tc chain)
  in
  ignore (fault_site r);
  let c1 = chunks () in
  check_bool "the faulted chase ran on the warm pool" true (c1 > c0);
  check_bool "the warm pool was kept" true (Pool.warm ~jobs:4 () == pool);
  let clean = Chase.restricted ~jobs:4 sigma_tc chain in
  check_bool "the same pool completes a clean chase" true
    (Chase.is_model clean && chunks () > c1)

let test_pool_drains_and_reraises () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (match
         Chaos.with_config always_raise (fun () ->
             Pool.parallel_map pool (fun x -> x + 1) (Seq.init 64 Fun.id))
       with
      | _ -> Alcotest.fail "an injected pool fault must re-raise at the join"
      | exception Chaos.Injected site ->
        check_bool "site names the chunk" true
          (String.length site >= 10 && String.sub site 0 10 = "pool.chunk"));
      (* the pool survives the fault: same workers, clean batch *)
      check_bool "pool survives" true
        (Pool.parallel_map pool (fun x -> x * 2) (Seq.init 10 Fun.id)
        = List.init 10 (fun x -> x * 2)))

let test_rewrite_fault_typed () =
  let sigma_g, _ = Tgd_workload.Families.separation_linear_vs_guarded in
  let config = Rewrite.{ default_config with jobs = 4 } in
  match
    Chaos.with_config always_raise (fun () -> Rewrite.g_to_l ~config sigma_g)
  with
  | Budget.Truncated { reason = Budget.Fault _; partial; _ } ->
    (* the discarded-batch contract: nothing half-screened is committed *)
    let cp = Option.get partial.Rewrite.checkpoint in
    check_int "cursor at a committed boundary" cp.Rewrite.cursor
      (List.length cp.Rewrite.screened_prefix)
  | Budget.Truncated { reason; _ } ->
    Alcotest.failf "expected Fault, got %a" Budget.pp_exhaustion reason
  | Budget.Complete _ -> Alcotest.fail "raise_p = 1 cannot complete a sweep"

(* -- fault-free chaos perturbs timing, never results -------------------- *)

let test_perturbation_preserves_results () =
  let baseline = Chase.restricted sigma_tc chain in
  List.iter
    (fun jobs ->
      let r =
        Chaos.with_config perturb_only (fun () ->
            Chase.restricted ~jobs sigma_tc chain)
      in
      check_bool
        (Printf.sprintf "delays/allocs change nothing at jobs %d" jobs)
        true
        (Chase.is_model r
        && Instance.equal baseline.Chase.instance r.Chase.instance
        && baseline.Chase.fired = r.Chase.fired))
    [ 1; 4 ]

let test_uninstall_restores_quiet () =
  Chaos.install always_raise;
  Chaos.uninstall ();
  check_bool "inactive" false (Chaos.active ());
  let r = Chase.restricted sigma_tc chain in
  check_bool "no residual faults" true (Chase.is_model r)

(* -- per-site shot streams are deterministic and independent ------------ *)

let firing_shots cfg site n =
  Chaos.install cfg;
  let out = ref [] in
  for shot = 0 to n - 1 do
    match Chaos.step ~site with
    | () -> ()
    | exception Chaos.Injected _ -> out := shot :: !out
  done;
  Chaos.uninstall ();
  List.rev !out

let test_site_streams_replay () =
  let cfg = { Chaos.default_config with Chaos.seed = 42; raise_p = 0.3 } in
  let a = firing_shots cfg "chase.fire" 200 in
  check_bool "the stream fires somewhere at p = 0.3" true (a <> []);
  check_bool "install resets the schedule: identical replay" true
    (firing_shots cfg "chase.fire" 200 = a);
  (* independence: interleaving steps of other sites must not shift this
     site's stream — shot numbers are per site, not global *)
  Chaos.install cfg;
  let interleaved = ref [] in
  for shot = 0 to 199 do
    (try Chaos.step ~site:"pool.worker" with Chaos.Injected _ -> ());
    (try Chaos.step ~site:"serve.request" with Chaos.Injected _ -> ());
    match Chaos.step ~site:"chase.fire" with
    | () -> ()
    | exception Chaos.Injected _ -> interleaved := shot :: !interleaved
  done;
  Chaos.uninstall ();
  check_bool "stream unchanged under interleaving" true
    (List.rev !interleaved = a);
  (* distinct sites see distinct schedules under the same seed *)
  check_bool "sites are decorrelated" true
    (firing_shots cfg "pool.worker" 200 <> a);
  (* and the shot counter is observable for test mining *)
  Chaos.install cfg;
  (try Chaos.step ~site:"chase.fire" with Chaos.Injected _ -> ());
  (try Chaos.step ~site:"chase.fire" with Chaos.Injected _ -> ());
  check_int "shot_count advances per site" 2
    (Chaos.shot_count ~site:"chase.fire");
  check_int "other sites unaffected" 0 (Chaos.shot_count ~site:"pool.chunk");
  Chaos.uninstall ()

let test_seed_changes_schedule () =
  let cfg seed = { Chaos.default_config with Chaos.seed; raise_p = 0.3 } in
  check_bool "different seeds, different schedules" true
    (firing_shots (cfg 1) "chase.fire" 200
    <> firing_shots (cfg 2) "chase.fire" 200)

(* -- qcheck: arbitrary fault schedules never break the typed contract --- *)

let arb_chaos_config =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "{seed=%d; delay_p=%.2f; alloc_p=%.2f; raise_p=%.2f}"
        c.Chaos.seed c.Chaos.delay_p c.Chaos.alloc_p c.Chaos.raise_p)
    (fun st ->
      { Chaos.seed = Random.State.int st 1_000_000;
        delay_p = Random.State.float st 0.5;
        delay_s = 1e-5;
        alloc_p = Random.State.float st 0.5;
        alloc_words = 4_096;
        raise_p = Random.State.float st 1.0;
        kill_p = 0.
      })

let prop_chaos_chase_typed =
  QCheck.Test.make ~name:"chase under arbitrary chaos is typed and sound"
    ~count:40 arb_chaos_config (fun cfg ->
      let jobs = 1 + (cfg.Chaos.seed mod 4) in
      let r =
        Chaos.with_config cfg (fun () ->
            Chase.restricted ~jobs sigma_tc chain)
      in
      (* with_pool returned (no hang), the outcome is typed, the committed
         prefix is sound, and quiet determinism is restored *)
      let typed =
        match r.Chase.outcome with
        | Chase.Terminated -> Chase.is_model r
        | Chase.Truncated (Budget.Fault _) -> true
        | Chase.Truncated _ -> false
      in
      typed
      && Instance.subset chain r.Chase.instance
      && (not (Chaos.active ()))
      && Chase.is_model (Chase.restricted ~jobs sigma_tc chain))

let prop_chaos_pool_drains =
  QCheck.Test.make ~name:"pool batches under chaos drain or re-raise Injected"
    ~count:30 arb_chaos_config (fun cfg ->
      Pool.with_pool ~jobs:3 (fun pool ->
          let input = Seq.init 48 Fun.id in
          let expected = List.init 48 (fun x -> x * x) in
          (match
             Chaos.with_config cfg (fun () ->
                 Pool.parallel_map pool (fun x -> x * x) input)
           with
          | result -> result = expected
          | exception Chaos.Injected _ -> true)
          (* and the pool is reusable either way *)
          && Pool.parallel_map pool (fun x -> x * x) input = expected))

let suite =
  [ case "chase fault is a typed trip" test_chase_fault_typed;
    case "naive chase fault is a typed trip" test_naive_chase_fault_typed;
    case "parallel chase fault is a typed trip" test_parallel_chase_fault_typed;
    case "chaos runs use the warm pool" test_chaos_uses_warm_pool;
    case "pool drains and re-raises" test_pool_drains_and_reraises;
    case "rewrite sweep fault is a typed trip" test_rewrite_fault_typed;
    case "delays and allocs preserve results" test_perturbation_preserves_results;
    case "uninstall restores quiet" test_uninstall_restores_quiet;
    case "per-site streams replay deterministically" test_site_streams_replay;
    case "seed changes the schedule" test_seed_changes_schedule
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_chaos_chase_typed; prop_chaos_pool_drains ]
