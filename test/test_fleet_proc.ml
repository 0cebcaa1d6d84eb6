(* Process-level fleet tests: fork real shard processes, kill them, and
   check the supervision and failover story end-to-end.

   This is a separate test executable because OCaml's [Unix.fork] is
   permanently refused once a process has ever spawned a domain, and the
   main test binary's pool/dispatcher suites spawn plenty.  Ordering
   inside this executable matters for the same reason: every fleet test
   (whose supervisor forks respawns throughout its run) executes before
   the single-process comparison server, which is the first thing here
   to create domains — so it runs last. *)

module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Admission = Tgd_net.Admission
module Dispatcher = Tgd_net.Dispatcher
module Transport = Tgd_net.Transport
module Loadgen = Tgd_net.Loadgen
module Fleet = Tgd_net.Fleet
module Supervisor = Tgd_engine.Supervisor

let check_bool what expected actual = Alcotest.check Alcotest.bool what expected actual
let check_int what expected actual = Alcotest.check Alcotest.int what expected actual

let req src =
  match Json.of_string src with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad test request %s: %s" src m

let fresh_sock () =
  let path = Filename.temp_file "tgd_test_fleet" ".sock" in
  Sys.remove path;
  path

let shard_config ?(server = Server.default_config) ?(drain_grace_s = 2.0) ()
    =
  { Transport.dispatcher =
      { Dispatcher.server;
        workers = 2;
        admission =
          Admission.default_config ~queue_limit:server.Server.queue_limit
      };
    max_connections = 16;
    idle_timeout_s = None;
    drain_grace_s
  }

let fast_policy =
  { Supervisor.max_restarts = 1000;
    backoff_base_s = 0.05;
    backoff_cap_s = 0.5;
    wedge_timeout_s = Some 10.0;
    tick_s = 0.05
  }

let with_fleet ?(shards = 3) ?(policy = fast_policy) f =
  let sock = fresh_sock () in
  let addr = Transport.Unix_sock sock in
  let t =
    Fleet.start
      { Fleet.default_config with
        shards;
        (* the router's failover ladder and drain grace are the shard's *)
        shard =
          shard_config
            ~server:
              { Server.default_config with
                Server.retries = 6;
                backoff_base_s = 0.05
              }
            ~drain_grace_s:3.0 ();
        policy;
        beat_s = 0.05
      }
      addr
  in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      check_int "fleet drain exits 0" 0 (Fleet.stop t)
    end
  in
  Fun.protect ~finally:stop (fun () -> f t addr);
  check_bool "front socket unlinked after drain" false (Sys.file_exists sock)

let addr_path = function
  | Transport.Unix_sock path -> path
  | Transport.Tcp _ -> Alcotest.fail "fleet tests listen on Unix sockets"

let wait_for ?(timeout = 15.) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let talk addr lines =
  let fd = Loadgen.connect ~attempts:20 addr in
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.map
        (fun line ->
          output_string oc line;
          output_char oc '\n';
          flush oc;
          input_line ic)
        lines)

(* The deterministic drill script: entailment over several distinct
   ontologies, so requests actually spread across shards. *)
let script =
  List.init 24 (fun i ->
      Json.to_string (Loadgen.multi_workload ~ontologies:6 ~distinct:3 () i))

(* Responses a fleet produced under a mid-stream shard kill, compared
   against a plain single-process server after every fleet is done
   (see the ordering note at the top of the file). *)
let failover_responses : string list ref = ref []

let test_respawn_with_service () =
  with_fleet (fun t addr ->
      let r1 = talk addr script in
      check_int "all requests answered" 24 (List.length r1);
      check_bool "shard killed" true (Fleet.kill_shard t 0);
      wait_for "respawn after kill" (fun () -> Fleet.respawn_count t > 0);
      (* service never paused: the drill script still answers in full *)
      let r2 = talk addr script in
      check_bool "responses unchanged across the kill" true (r1 = r2);
      wait_for "full strength restored" (fun () -> not (Fleet.degraded t)))

let test_degraded_sheds_expensive_answers_cheap () =
  (* 2 shards, majority quorum 2, and a respawn backoff far longer than
     the test: one kill leaves the fleet degraded for the duration *)
  let slow_policy = { fast_policy with Supervisor.backoff_base_s = 120. } in
  with_fleet ~shards:2 ~policy:slow_policy (fun t addr ->
      check_bool "full fleet is not degraded" false (Fleet.degraded t);
      check_bool "shard killed" true (Fleet.kill_shard t 1);
      wait_for "degraded below quorum" (fun () -> Fleet.degraded t);
      let responses =
        talk addr
          [ {| {"id":1,"op":"classify","tgds":"E(x,y) -> S(y)."} |};
            {| {"id":2,"op":"entail","tgds":"E(x,y) -> E(y,z).","goal":"E(x,y) -> S(y)."} |}
          ]
      in
      match List.map req responses with
      | [ cheap; expensive ] ->
        check_bool "degraded fleet still answers cheap requests" true
          (match Json.member "ok" cheap with
          | Some (Json.Bool b) -> b
          | _ -> false);
        let error = Json.member "error" expensive in
        check_bool "expensive request shed with typed overloaded" true
          (Option.bind error (Json.member "code")
          = Some (Json.String "overloaded"));
        check_bool "shed carries the degraded flag" true
          (Option.bind error (Json.member "degraded")
          = Some (Json.Bool true))
      | _ -> Alcotest.fail "expected two responses")

let test_fleet_status_op () =
  with_fleet (fun _t addr ->
      match talk addr [ {| {"id":9,"op":"fleet_status"} |} ] with
      | [ line ] -> (
        let resp = req line in
        check_bool "status is ok" true
          (Json.member "ok" resp = Some (Json.Bool true));
        match Json.member "result" resp with
        | Some result ->
          check_bool "status reports shard count" true
            (Json.member "shards" result = Some (Json.Int 3));
          check_bool "status reports full liveness" true
            (Json.member "alive" result = Some (Json.Int 3))
        | None -> Alcotest.fail "fleet_status without result")
      | _ -> Alcotest.fail "expected one response")

let test_failover_collect () =
  with_fleet (fun t addr ->
      let fd = Loadgen.connect ~attempts:20 addr in
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      failover_responses :=
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            List.mapi
              (fun i line ->
                (* mid-stream, kill the shard that owns the NEXT request:
                   the router must fail over without the client noticing *)
                if i = 12 then begin
                  let home =
                    Fleet.shard_of_digest ~shards:3
                      (Fleet.request_digest (req line))
                  in
                  ignore (Fleet.kill_shard t home)
                end;
                output_string oc line;
                output_char oc '\n';
                flush oc;
                input_line ic)
              script);
      check_int "all requests answered under the kill" 24
        (List.length !failover_responses))

let shard_pid t i =
  match Option.bind (Json.member "shard" (Fleet.status_json t)) Json.as_list with
  | Some shards -> (
    match Json.member "pid" (List.nth shards i) with
    | Some (Json.Int pid) -> pid
    | _ -> 0)
  | None -> 0

(* The targets of a process's descriptors above stdio, e.g.
   ["socket:[123]"]. *)
let fd_links pid =
  let dir = Printf.sprintf "/proc/%s/fd" pid in
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun e ->
         match int_of_string_opt e with
         | Some n when n > 2 -> (
           try Some (Unix.readlink (Filename.concat dir e))
           with Unix.Unix_error _ -> None)
         | _ -> None)

(* A shard respawned while a router session (and its backend connections)
   is open must hold none of the router's sockets or pipes — only its own
   heartbeat pipe, whose read end the router keeps. *)
let test_respawned_shard_inherits_nothing () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  with_fleet (fun t addr ->
      let fd = Loadgen.connect ~attempts:20 addr in
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      let rpc line =
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (List.map rpc script);
          let old = shard_pid t 0 in
          check_bool "shard killed" true (Fleet.kill_shard t 0);
          wait_for "respawn after kill" (fun () ->
              let pid = shard_pid t 0 in
              pid > 0 && pid <> old);
          let pid = shard_pid t 0 in
          (* the respawned shard answers on its own socket, so its
             descriptor sweep has run *)
          let shard = Transport.Unix_sock (addr_path addr ^ ".shard0") in
          check_int "respawned shard serves" 1
            (List.length (talk shard [ List.hd script ]));
          ignore (List.map rpc script);
          let ours = fd_links "self" in
          let shared kind =
            List.filter
              (fun l ->
                String.starts_with ~prefix:kind l && List.mem l ours)
              (fd_links (string_of_int pid))
          in
          check_int "no router socket inherited" 0
            (List.length (shared "socket:"));
          check_int "only the heartbeat pipe is shared" 1
            (List.length (shared "pipe:"))))

(* A stdio session over a pipe pair, ended by end-of-input. *)
let talk_stdio config lines =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let t =
    Transport.stdio config
      (Unix.in_channel_of_descr in_r)
      (Unix.out_channel_of_descr out_w)
  in
  let oc = Unix.out_channel_of_descr in_w
  and ic = Unix.in_channel_of_descr out_r in
  let resps =
    List.map
      (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic)
      lines
  in
  Unix.close in_w;
  check_int "stdio session exits 0 at end of input" 0 (Transport.wait t);
  List.iter Unix.close [ in_r; out_r; out_w ];
  resps

(* LAST: spawns domains, which forbids any further fork in this
   process. *)
let test_failover_byte_identical () =
  let sock = fresh_sock () in
  let single = Transport.start (shard_config ()) (Transport.Unix_sock sock) in
  let expected = talk (Transport.Unix_sock sock) script in
  check_int "single-process drain exits 0" 0 (Transport.stop single);
  check_bool "failover responses byte-identical to single-process run" true
    (expected = !failover_responses);
  check_bool "stdio responses byte-identical to single-process run" true
    (expected = talk_stdio (shard_config ()) script)

let () =
  Alcotest.run "tgdonto-fleet"
    [ ( "fleet-proc",
        [ Alcotest.test_case "killed shard respawns while service continues"
            `Slow test_respawn_with_service;
          Alcotest.test_case "degraded fleet sheds expensive, answers cheap"
            `Slow test_degraded_sheds_expensive_answers_cheap;
          Alcotest.test_case "fleet_status answered by the router" `Slow
            test_fleet_status_op;
          Alcotest.test_case "failover under mid-stream shard kill" `Slow
            test_failover_collect;
          Alcotest.test_case "respawned shard inherits no router descriptor"
            `Slow test_respawned_shard_inherits_nothing;
          Alcotest.test_case
            "failover responses byte-identical to single-process run" `Slow
            test_failover_byte_identical
        ] )
    ]
