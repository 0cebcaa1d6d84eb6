(* The network serving subsystem: admission predicts and sheds, the
   dispatcher answers every request exactly once from any number of
   threads, the socket transport round-trips the NDJSON protocol and
   drains gracefully, the shared warm caches stay within their byte
   ceiling, and — the properties — concurrent connections issuing the
   same requests read byte-identical responses while the server-scope
   hit counters only ever climb. *)

open Helpers
module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Memo = Tgd_engine.Memo
module Chaos = Tgd_engine.Chaos
module Strategy = Tgd_analysis.Strategy
module Admission = Tgd_net.Admission
module Dispatcher = Tgd_net.Dispatcher
module Transport = Tgd_net.Transport
module Loadgen = Tgd_net.Loadgen
module Warm = Tgd_net.Warm

let req src =
  match Json.of_string src with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad test request %s: %s" src m

let get_ok resp =
  match Json.member "ok" resp with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response without ok: %s" (Json.to_string resp)

let error_code resp =
  match Option.bind (Json.member "error" resp) (Json.member "code") with
  | Some (Json.String c) -> c
  | _ -> Alcotest.failf "no error code in %s" (Json.to_string resp)

(* -- warm cache byte ceiling --------------------------------------------- *)

(* Every serve-scope table sits under the one [--cache-bytes] ceiling:
   after 200 distinct ontologies through a dispatcher, the tables' summed
   footprint stays within it, and each table that holds entries is
   weighed (an unbounded table does not weigh its entries at all). *)
let test_serve_tables_bounded () =
  let bound = 4 * 1024 * 1024 in
  let tables () =
    [ ("entailment", Tgd_chase.Entailment.cache_counters ());
      ("analyze", Memo.counters Server.analyze_memo);
      ( Memo.name Tgd_chase.Chase.certificate_memo,
        Memo.counters Tgd_chase.Chase.certificate_memo )
    ]
  in
  Warm.configure ~cache_bytes:(Some bound);
  Fun.protect
    ~finally:(fun () -> Warm.configure ~cache_bytes:None)
    (fun () ->
      let d =
        Dispatcher.create
          { Dispatcher.default_config with Dispatcher.workers = 1 }
      in
      Fun.protect
        ~finally:(fun () -> Dispatcher.shutdown d)
        (fun () ->
          for i = 0 to 199 do
            let tgds =
              Printf.sprintf "E%d(x,y) -> S%d(y). S%d(x) -> exists z. T%d(x,z)." i i i i
            in
            List.iter
              (fun extra ->
                let resp =
                  Dispatcher.handle d
                    (Json.Obj
                       ((("id", Json.Int i) :: ("tgds", Json.String tgds) :: extra)))
                in
                if not (get_ok resp) then
                  Alcotest.failf "request failed: %s" (Json.to_string resp))
              [ [ ("op", Json.String "analyze") ];
                [ ("op", Json.String "entail");
                  ("goal", Json.String (Printf.sprintf "E%d(x,y) -> S%d(y)." i i))
                ];
                [ ("op", Json.String "chase");
                  ("facts", Json.String (Printf.sprintf "E%d(a,b). E%d(b,c)." i i))
                ]
              ]
          done);
      let total =
        List.fold_left (fun acc (_, c) -> acc + c.Memo.bytes) 0 (tables ())
      in
      check_bool
        (Printf.sprintf "summed footprint %d within %d" total bound)
        true (total <= bound);
      check_bool "the warm counters see every table" true
        ((Warm.counters ()).Memo.bytes = total);
      List.iter
        (fun (name, c) ->
          if c.Memo.entries > 0 then
            check_bool (name ^ " is weighed under the ceiling") true
              (c.Memo.bytes > 0))
        (tables ()))

(* Each serve-scope table keeps to its own share of the ceiling, in 32nds:
   entailment 14, analyze 2, the termination-lattice memo 1 (the other 15
   are assigned to no table).  The traffic pushes the entailment,
   analyze and lattice tables past their shares, so a split that handed a
   table more than its share would show here as a footprint above it.  A
   shard over its limit keeps only its newest entry, so the footprint may
   exceed the share by what such an entry weighs beyond the shard's limit;
   no entry here weighs 4 KiB. *)
let test_serve_table_shares () =
  let bound = 4 * 1024 * 1024 in
  let tables () =
    [ ("entailment", 14, Tgd_chase.Entailment.cache_counters ());
      ("analyze", 2, Memo.counters Server.analyze_memo);
      ( Memo.name Tgd_chase.Chase.certificate_memo,
        1,
        Memo.counters Tgd_chase.Chase.certificate_memo )
    ]
  in
  let filled = [ "entailment"; "analyze"; "termination-lattice" ] in
  Warm.configure ~cache_bytes:(Some bound);
  Fun.protect
    ~finally:(fun () -> Warm.configure ~cache_bytes:None)
    (fun () ->
      let d =
        Dispatcher.create
          { Dispatcher.default_config with Dispatcher.workers = 1 }
      in
      Fun.protect
        ~finally:(fun () -> Dispatcher.shutdown d)
        (fun () ->
          for i = 0 to 599 do
            (* long relation names make every entry heavier, so fewer
               requests overflow the shares *)
            let e = Printf.sprintf "Edge_of_the_ontology_numbered_%d" i in
            let s = Printf.sprintf "Source_of_the_ontology_numbered_%d" i in
            let t = Printf.sprintf "Target_of_the_ontology_numbered_%d" i in
            let tgds =
              Printf.sprintf "%s(x,y) -> %s(y). %s(x) -> exists z. %s(x,z)." e s
                s t
            in
            let goal =
              Printf.sprintf
                "%s(x1,x2), %s(x2,x3), %s(x3,x4), %s(x4,x5), %s(x5,x6) -> %s(x6)."
                e e e e e s
            in
            List.iter
              (fun extra ->
                let resp =
                  Dispatcher.handle d
                    (Json.Obj
                       ((("id", Json.Int i) :: ("tgds", Json.String tgds) :: extra)))
                in
                if not (get_ok resp) then
                  Alcotest.failf "request failed: %s" (Json.to_string resp))
              [ [ ("op", Json.String "analyze") ];
                [ ("op", Json.String "entail"); ("goal", Json.String goal) ];
                [ ("op", Json.String "chase");
                  ("facts", Json.String (e ^ "(a,b)."));
                  ("rounds", Json.Int 1)
                ]
              ]
          done);
      List.iter
        (fun (name, k, c) ->
          let share = bound / 32 * k in
          let allowance =
            Memo.shard_count * max 0 (4096 - (share / Memo.shard_count))
          in
          check_bool
            (Printf.sprintf "%s footprint %d within its share %d" name
               c.Memo.bytes share)
            true
            (c.Memo.bytes <= share + allowance);
          if List.mem name filled then
            check_bool (name ^ " was filled past its share") true
              (c.Memo.evicted > 0))
        (tables ()))

(* A server answering a stream of never-seen ontologies keeps a bounded
   heap: 5,000 distinct renamed 3-rule ontologies go through a dispatcher
   as [entail] requests under a small cache ceiling, and the live
   major-heap words after [Gc.compact], sampled every 250 requests, peak
   no higher in the second half of the run than in the first, up to a
   fixed allowance.  A per-ontology table that nothing evicts (each
   ontology costs about 1.5 kB) grows by some 3.7 MB over the second
   half. *)
let test_entail_heap_plateaus () =
  let n = 5_000 and every = 250 in
  let allowance = 128 * 1024 (* words: 1 MiB on a 64-bit host *) in
  Warm.configure ~cache_bytes:(Some (256 * 1024));
  Fun.protect
    ~finally:(fun () -> Warm.configure ~cache_bytes:None)
    (fun () ->
      let d =
        Dispatcher.create
          { Dispatcher.default_config with Dispatcher.workers = 1 }
      in
      let samples =
        Fun.protect
          ~finally:(fun () -> Dispatcher.shutdown d)
          (fun () ->
            List.init (n / every) (fun chunk ->
                for j = 0 to every - 1 do
                  let i = (chunk * every) + j in
                  let tgds =
                    Printf.sprintf
                      "E%d(x,y) -> S%d(y). S%d(x) -> exists z. T%d(x,z). \
                       T%d(x,y) -> S%d(y)."
                      i i i i i i
                  in
                  let resp =
                    Dispatcher.handle d
                      (Json.Obj
                         [ ("id", Json.Int i);
                           ("op", Json.String "entail");
                           ("tgds", Json.String tgds);
                           ( "goal",
                             Json.String (Printf.sprintf "E%d(x,y) -> S%d(y)." i i) )
                         ])
                  in
                  if not (get_ok resp) then
                    Alcotest.failf "request failed: %s" (Json.to_string resp)
                done;
                Gc.compact ();
                (Gc.stat ()).Gc.live_words))
      in
      let half = List.length samples / 2 in
      let peak l = List.fold_left max 0 l in
      let first = peak (List.filteri (fun i _ -> i < half) samples)
      and second = peak (List.filteri (fun i _ -> i >= half) samples) in
      check_bool
        (Printf.sprintf
           "live words peak %d in the second half, %d in the first (samples %s)"
           second first
           (String.concat " " (List.map string_of_int samples)))
        true
        (second <= first + allowance))

let test_memo_byte_ceiling () =
  let m : string Memo.t = Memo.create ~name:"test-lru" () in
  Memo.set_limit m ~bytes:(Some 16_384);
  (* 16_384 requested, but each shard floors at 4 KiB: the effective
     ceiling is shard_count * 4096.  Insert well past it. *)
  let effective = Memo.shard_count * 4096 in
  let payload i = String.make 2048 (Char.chr (65 + (i mod 26))) in
  for i = 0 to 199 do
    ignore (Memo.find_or_add m (Printf.sprintf "key-%d" i) (fun () -> payload i))
  done;
  check_bool "evictions happened" true (Memo.evictions m > 0);
  check_bool "footprint bounded"
    true
    (Memo.approx_bytes m <= effective);
  check_bool "table still serves" true
    (Memo.find_or_add m "key-fresh" (fun () -> "v") = "v");
  (* removing the limit resets accounting *)
  Memo.set_limit m ~bytes:None;
  check_int "unlimited tables do not weigh" 0 (Memo.approx_bytes m)

(* -- admission ----------------------------------------------------------- *)

let terminating = {| {"id":1,"op":"entail","tgds":"E(x,y) -> S(y).","goal":"E(x,y) -> S(y)."} |}
let uncertified = {| {"id":1,"op":"entail","tgds":"E(x,y) -> E(y,z).","goal":"E(x,y) -> S(y)."} |}

let test_admission_predicts () =
  let config = Admission.default_config ~queue_limit:8 in
  let cost src = Admission.predict config (req src) in
  check_bool "classify is cheap" true
    (cost {| {"id":1,"op":"classify","tgds":"E(x,y) -> S(y)."} |}
    = Strategy.Cheap);
  check_bool "certified entailment is moderate" true
    (cost terminating = Strategy.Moderate);
  check_bool "uncertified entailment is expensive" true
    (cost uncertified = Strategy.Expensive);
  check_bool "unparsable rules fail fast, predicted cheap" true
    (cost {| {"id":1,"op":"entail","tgds":"not rules"} |} = Strategy.Cheap)

let test_admission_sheds_by_cost () =
  let config = Admission.default_config ~queue_limit:8 in
  let decide depth src =
    Admission.decide config ~queue_depth:depth (req src)
  in
  (match decide 0 uncertified with
  | Admission.Admit Strategy.Expensive -> ()
  | _ -> Alcotest.fail "empty queue admits even expensive work");
  (match decide config.Admission.expensive_at uncertified with
  | Admission.Shed Strategy.Expensive -> ()
  | _ -> Alcotest.fail "expensive work sheds at the early threshold");
  (match decide config.Admission.expensive_at terminating with
  | Admission.Admit _ -> ()
  | _ -> Alcotest.fail "moderate work rides past the early threshold");
  match decide config.Admission.queue_limit terminating with
  | Admission.Shed _ -> ()
  | _ -> Alcotest.fail "everything sheds at the hard limit"

(* The rewrite estimate must track the chunk costing's capped candidate
   enumeration, not the astronomical Section 9.2 bound: a certified
   layered ontology stays Moderate (admitted on the warm path), so a
   loadgen sweep over it never sees a spurious shed. *)
let layered_rewrite =
  {| {"id":1,"op":"rewrite","direction":"g2l","max_head_atoms":1,
      "tgds":"R0L0(x,y) -> R0L1(y,x). R0L0(x,y) -> P0L0(x). R0L0(x,y), P0L0(x) -> T0L0(x). R1L0(x,y) -> R1L1(y,x). R1L0(x,y) -> P1L0(x). R1L0(x,y), P1L0(x) -> T1L0(x)."} |}

let test_admission_rewrite_capped_estimate () =
  let config = Admission.default_config ~queue_limit:8 in
  check_bool "certified layered rewrite is moderate, not expensive" true
    (Admission.predict config (req layered_rewrite) = Strategy.Moderate);
  match Admission.decide config ~queue_depth:0 (req layered_rewrite) with
  | Admission.Admit _ -> ()
  | _ -> Alcotest.fail "certified layered rewrite must be admitted"

(* A batch costs what its priciest member costs. *)
let test_admission_batch_max_of_members () =
  let config = Admission.default_config ~queue_limit:8 in
  let batch subs =
    Json.Obj
      [ ("id", Json.Int 1);
        ("op", Json.String "batch");
        ("requests", Json.List (List.map req subs))
      ]
  in
  check_bool "batch of moderate is moderate" true
    (Admission.predict config (batch [ terminating; terminating ])
    = Strategy.Moderate);
  check_bool "one expensive member makes the batch expensive" true
    (Admission.predict config (batch [ terminating; uncertified ])
    = Strategy.Expensive);
  check_bool "empty batch is cheap" true
    (Admission.predict config (batch []) = Strategy.Cheap)

(* -- dispatcher ---------------------------------------------------------- *)

let with_dispatcher ?(workers = 2) ?admission f =
  let admission =
    Option.value admission
      ~default:(Admission.default_config ~queue_limit:16)
  in
  let d =
    Dispatcher.create
      { Dispatcher.server = Server.default_config; workers; admission }
  in
  Fun.protect ~finally:(fun () -> Dispatcher.shutdown d) (fun () -> f d)

let test_dispatcher_serves_and_reports () =
  with_dispatcher (fun d ->
      let resp = Dispatcher.handle d (req terminating) in
      check_bool "entail served" true (get_ok resp);
      let stats = Dispatcher.handle d (req {| {"id":9,"op":"stats"} |}) in
      check_bool "stats op ok" true (get_ok stats);
      match Option.bind (Json.member "result" stats) (Json.member "requests_served") with
      | Some (Json.Int n) -> check_bool "served counted" true (n >= 1)
      | _ -> Alcotest.fail "stats without requests_served")

let test_dispatcher_sheds_with_typed_overload () =
  let admission =
    { (Admission.default_config ~queue_limit:0) with Admission.queue_limit = 0 }
  in
  with_dispatcher ~admission (fun d ->
      let resp = Dispatcher.handle d (req terminating) in
      check_bool "shed" true (not (get_ok resp));
      check_bool "typed overloaded" true (error_code resp = "overloaded");
      match
        Option.bind (Json.member "error" resp) (Json.member "predicted_cost")
      with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.fail "overload response without predicted_cost")

(* A batch of k sub-requests answers exactly like k sequential
   submissions: same sub-responses, byte for byte, in submission order —
   chunked parallel dispatch is invisible to the client. *)
let test_dispatcher_batch_matches_sequential () =
  with_dispatcher (fun d ->
      let subs =
        List.init 6 (fun i ->
            req
              (Printf.sprintf
                 {| {"id":%d,"op":"entail","tgds":"E(x,y) -> S(y).","goal":"E(x,y) -> S(y)."} |}
                 i))
      in
      let individual =
        List.map (fun s -> Json.to_string (Dispatcher.handle d s)) subs
      in
      let batch =
        Dispatcher.handle d
          (Json.Obj
             [ ("id", Json.Int 99);
               ("op", Json.String "batch");
               ("requests", Json.List subs)
             ])
      in
      check_bool "batch ok" true (get_ok batch);
      (match Json.member "id" batch with
      | Some (Json.Int 99) -> ()
      | _ -> Alcotest.fail "batch response must echo the batch id");
      match Option.bind (Json.member "result" batch) (Json.member "responses") with
      | Some (Json.List resps) ->
        check_int "one response per sub-request" (List.length subs)
          (List.length resps);
        List.iteri
          (fun i r ->
            check_bool
              (Printf.sprintf "sub-response %d byte-identical" i)
              true
              (Json.to_string r = List.nth individual i))
          resps
      | _ -> Alcotest.fail "batch response without responses list")

let test_dispatcher_batch_rejects_malformed () =
  with_dispatcher (fun d ->
      let resp =
        Dispatcher.handle d (req {| {"id":1,"op":"batch","requests":"nope"} |})
      in
      check_bool "malformed batch refused" true (not (get_ok resp)))

let test_dispatcher_total_under_faults () =
  with_dispatcher (fun d ->
      Chaos.with_config
        { Chaos.default_config with Chaos.seed = 23; raise_p = 0.3 }
        (fun () ->
          let ok = ref 0 and fault = ref 0 in
          for i = 1 to 25 do
            let resp =
              Dispatcher.handle d
                (req
                   (Printf.sprintf
                      {| {"id":%d,"op":"entail","tgds":"E(x,y) -> S(y).","goal":"E(x,y) -> S(y)."} |}
                      i))
            in
            match Json.member "ok" resp with
            | Some (Json.Bool true) -> incr ok
            | Some (Json.Bool false) -> incr fault
            | _ -> Alcotest.failf "malformed: %s" (Json.to_string resp)
          done;
          check_int "every request answered" 25 (!ok + !fault);
          check_bool "retries rescue most" true (!ok > 0)))

(* -- socket transport ---------------------------------------------------- *)

let fresh_sock () =
  let path =
    Filename.temp_file "tgd_test_net" ".sock"
  in
  Sys.remove path;
  path

let server_config ?(server = Server.default_config) ?(max_connections = 16)
    ?(workers = 2) () =
  { Transport.dispatcher =
      { Dispatcher.server;
        workers;
        admission =
          Admission.default_config ~queue_limit:server.Server.queue_limit
      };
    max_connections;
    idle_timeout_s = None;
    drain_grace_s = 2.0
  }

let with_server ?server ?max_connections ?workers f =
  let sock = fresh_sock () in
  let addr = Transport.Unix_sock sock in
  let t =
    Transport.start (server_config ?server ?max_connections ?workers ()) addr
  in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      check_int "drain exits 0" 0 (Transport.stop t)
    end
  in
  Fun.protect ~finally:stop (fun () -> f addr);
  check_bool "socket unlinked after drain" false (Sys.file_exists sock)

(* One raw client connection: send each line, read one response per line. *)
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

let test_socket_round_trip () =
  with_server (fun addr ->
      let r =
        Loadgen.run addr ~connections:2 ~requests:6
          (Loadgen.entail_workload ~distinct:3 ())
      in
      check_int "no protocol violations" 0 r.Loadgen.malformed;
      check_int "all served" 12 r.Loadgen.ok)

let test_socket_oversized_line () =
  let server = { Server.default_config with Server.max_line_bytes = 256 } in
  with_server ~server (fun addr ->
      let big =
        Printf.sprintf {| {"id":1,"op":"classify","tgds":"%s"} |}
          (String.make 400 'x')
      in
      match
        talk addr
          [ big; {| {"id":2,"op":"classify","tgds":"E(x,y) -> S(y)."} |} ]
      with
      | [ r1; r2 ] ->
        check_bool "typed request_too_large" true
          (error_code (req r1) = "request_too_large");
        check_bool "session survives oversized line" true (get_ok (req r2))
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

let test_socket_connection_limit () =
  with_server ~max_connections:1 (fun addr ->
      let fd1 = Loadgen.connect addr in
      let ic1 = Unix.in_channel_of_descr fd1
      and oc1 = Unix.out_channel_of_descr fd1 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd1 with Unix.Unix_error _ -> ())
        (fun () ->
          (* complete one request so the first session is registered *)
          output_string oc1
            {| {"id":1,"op":"classify","tgds":"E(x,y) -> S(y)."} |};
          output_char oc1 '\n';
          flush oc1;
          check_bool "first connection served" true
            (get_ok (req (input_line ic1)));
          (* the second connection gets one overloaded line, then EOF *)
          let fd2 = Loadgen.connect addr in
          let ic2 = Unix.in_channel_of_descr fd2 in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd2 with Unix.Unix_error _ -> ())
            (fun () ->
              check_bool "over-limit connection refused with a typed line"
                true
                (error_code (req (input_line ic2)) = "overloaded");
              match input_line ic2 with
              | _ -> Alcotest.fail "over-limit connection not closed"
              | exception End_of_file -> ())))

(* -- fairness across connections ------------------------------------------ *)

(* Connection A pipelines 16 slow chases (distinct seed facts over
   [Families.layered_existential]) in one write, without reading, to a
   server with one worker.  Once A's first reply is back, connection B
   sends one request.  A session answers each line before it reads the
   next, so B's request reaches the pool's queue ahead of A's later
   ones: B's reply must arrive before A's 16th. *)
let test_pipelining_cannot_starve () =
  let n = 16 in
  let tgds =
    String.concat " "
      (List.map Tgd_parse.Print.tgd
         (Tgd_workload.Families.layered_existential ~copies:8 ~depth:6))
  in
  let slow i =
    let facts =
      String.concat " "
        (List.init 16 (fun j ->
             Printf.sprintf "R0L0(s%d_%d, s%d_%d)." i j i (j + 1)))
    in
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int i);
           ("op", Json.String "chase");
           ("tgds", Json.String tgds);
           ("facts", Json.String facts)
         ])
  in
  with_server ~workers:1 (fun addr ->
      let fd_a = Loadgen.connect ~attempts:20 addr in
      let fd_b = Loadgen.connect ~attempts:20 addr in
      let ic_a = Unix.in_channel_of_descr fd_a
      and oc_a = Unix.out_channel_of_descr fd_a in
      let ic_b = Unix.in_channel_of_descr fd_b
      and oc_b = Unix.out_channel_of_descr fd_b in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ fd_a; fd_b ])
        (fun () ->
          (* A's replies are drained as they come, so neither side's
             socket buffer can fill up and stall the other *)
          let a_replies = Atomic.make 0 in
          let a_ok = Atomic.make true in
          let reader =
            Thread.create
              (fun () ->
                for _ = 1 to n do
                  if not (get_ok (req (input_line ic_a))) then
                    Atomic.set a_ok false;
                  Atomic.incr a_replies
                done)
              ()
          in
          output_string oc_a
            (String.concat "" (List.init n (fun i -> slow i ^ "\n")));
          flush oc_a;
          let deadline = Unix.gettimeofday () +. 30. in
          while Atomic.get a_replies < 1 && Unix.gettimeofday () < deadline do
            Thread.delay 0.001
          done;
          output_string oc_b
            {| {"id":99,"op":"classify","tgds":"E(x,y) -> S(y)."} |};
          output_char oc_b '\n';
          flush oc_b;
          check_bool "B served" true (get_ok (req (input_line ic_b)));
          let a_before_b = Atomic.get a_replies in
          Thread.join reader;
          check_int "A answered every line" n (Atomic.get a_replies);
          check_bool "A served" true (Atomic.get a_ok);
          check_bool
            (Printf.sprintf "B answered after %d of A's %d replies" a_before_b
               n)
            true (a_before_b < n)))

(* -- session-end classification ------------------------------------------ *)

let test_classify_session_exn () =
  let name e = Transport.session_end_name (Transport.classify_session_exn e) in
  check_bool "EOF is client_closed" true (name End_of_file = "client_closed");
  check_bool "EPIPE is peer_reset" true
    (name (Unix.Unix_error (Unix.EPIPE, "write", "")) = "peer_reset");
  check_bool "ECONNRESET is peer_reset" true
    (name (Unix.Unix_error (Unix.ECONNRESET, "read", "")) = "peer_reset");
  check_bool "channel broken-pipe text is peer_reset" true
    (name (Sys_error "Broken pipe") = "peer_reset");
  check_bool "blocked io is idle_timeout" true
    (name Sys_blocked_io = "idle_timeout");
  check_bool "EAGAIN is idle_timeout" true
    (name (Unix.Unix_error (Unix.EAGAIN, "read", "")) = "idle_timeout");
  check_bool "rcvtimeo channel text is idle_timeout" true
    (name (Sys_error "Resource temporarily unavailable") = "idle_timeout");
  check_bool "anything else keeps its message" true
    (name (Failure "boom") = "error")

(* A server with a short idle timeout: a quiet-but-open connection is
   closed by the server and counted as idle_timeout; a client that
   pipelines requests and slams the connection shut without reading is
   counted as peer_reset.  Counted via the typed accessors, and also
   surfaced under stats.sessions. *)
let with_idle_server ?idle_timeout_s f =
  let sock = fresh_sock () in
  let t =
    Transport.start
      { (server_config ()) with Transport.idle_timeout_s }
      (Transport.Unix_sock sock)
  in
  Fun.protect
    ~finally:(fun () -> check_int "drain exits 0" 0 (Transport.stop t))
    (fun () -> f t (Transport.Unix_sock sock))

let poll_counter what read =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if read () > 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let test_idle_timeout_counted () =
  with_idle_server ~idle_timeout_s:0.3 (fun t addr ->
      let fd = Loadgen.connect addr in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          poll_counter "idle-timeout session end" (fun () ->
              Transport.idle_timeouts (Transport.session_ends t))))

let test_peer_reset_counted () =
  with_idle_server (fun t addr ->
      (* pipeline a few requests and close without reading: the server's
         response writes hit a closed peer (EPIPE) *)
      let attempt () =
        let fd = Loadgen.connect addr in
        let oc = Unix.out_channel_of_descr fd in
        for i = 0 to 2 do
          output_string oc
            (Printf.sprintf
               {| {"id":%d,"op":"entail","tgds":"E(x,y) -> S(y). S(x) -> T(x).","goal":"E(x0, x1), E(x1, x2) -> T(x2)."} |}
               i);
          output_char oc '\n'
        done;
        flush oc;
        Unix.close fd
      in
      let deadline = Unix.gettimeofday () +. 10. in
      let rec drive () =
        if Transport.peer_resets (Transport.session_ends t) > 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no peer_reset counted"
        else begin
          attempt ();
          Thread.delay 0.1;
          drive ()
        end
      in
      drive ())

(* -- properties ---------------------------------------------------------- *)

(* Request scripts drawn from the deterministic ops (never [stats], whose
   payload legitimately varies between calls). *)
let gen_script : string list QCheck.Gen.t =
  QCheck.Gen.(
    let gen_line =
      oneof
        [ map
            (fun k ->
              let goal = Buffer.create 64 in
              for j = 0 to k do
                if j > 0 then Buffer.add_string goal ", ";
                Buffer.add_string goal
                  (Printf.sprintf "E(x%d, x%d)" j (j + 1))
              done;
              Printf.sprintf
                {| {"id":%d,"op":"entail","tgds":"E(x,y) -> S(y). S(x) -> T(x).","goal":"%s -> T(x%d)."} |}
                k (Buffer.contents goal) (k + 1))
            (int_range 1 4);
          map
            (fun k ->
              Printf.sprintf
                {| {"id":%d,"op":"classify","tgds":"E(x,y) -> S(y)."} |} k)
            (int_range 1 4);
          return {| not json at all |}
        ]
    in
    list_size (int_range 1 6) gen_line)

let arb_script =
  QCheck.make ~print:(String.concat "\n") gen_script

(* C connections replay the same script concurrently, and a stdio
   session replays it once more; the byte streams they read back must be
   identical.  This is what licenses sharing the warm caches across
   connections at all — no per-connection state leaks into responses —
   and what makes stdio and sockets one protocol. *)
let prop_identical_responses =
  QCheck.Test.make ~count:12 ~name:"concurrent connections read identical bytes"
    arb_script
    (fun script ->
      let out = Array.make 3 [] in
      with_server (fun addr ->
          let threads =
            List.init 3 (fun i ->
                Thread.create (fun () -> out.(i) <- talk addr script) ())
          in
          List.iter Thread.join threads);
      let code, stdio = talk_stdio (server_config ()) script in
      code = 0 && out.(0) = out.(1) && out.(1) = out.(2) && stdio = out.(0))

let hits_of resp =
  match
    Option.bind (Json.member "cache" resp) (Json.member "hits")
  with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "no cache.hits in %s" (Json.to_string resp)

let test_hit_counters_monotone () =
  Warm.reset ();
  with_server (fun addr ->
      let line =
        {| {"id":7,"op":"entail","tgds":"E(x,y) -> S(y). S(x) -> T(x).","goal":"E(x0, x1), E(x1, x2) -> T(x2).","cache_stats":true} |}
      in
      let responses = talk addr (List.init 8 (fun _ -> line)) in
      let hits = List.map (fun r -> hits_of (req r)) responses in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      check_bool "hit counter never decreases" true (monotone hits);
      check_bool "repeats actually hit" true
        (List.nth hits 7 > List.hd hits))

let suite =
  [ case "memo byte ceiling evicts LRU" test_memo_byte_ceiling;
    case "entail: the live heap plateaus over 5,000 distinct ontologies"
      test_entail_heap_plateaus;
    case "serve-scope tables share the cache ceiling"
      test_serve_tables_bounded;
    case "each serve table keeps to its own share" test_serve_table_shares;
    case "admission predicts cost from static analysis"
      test_admission_predicts;
    case "admission sheds expensive work early" test_admission_sheds_by_cost;
    case "admission rewrite estimate stays capped"
      test_admission_rewrite_capped_estimate;
    case "admission batch costs its priciest member"
      test_admission_batch_max_of_members;
    case "dispatcher serves and reports stats"
      test_dispatcher_serves_and_reports;
    case "dispatcher sheds with typed overload"
      test_dispatcher_sheds_with_typed_overload;
    case "dispatcher batch matches sequential submissions"
      test_dispatcher_batch_matches_sequential;
    case "dispatcher rejects malformed batch"
      test_dispatcher_batch_rejects_malformed;
    slow_case "dispatcher total under injected faults"
      test_dispatcher_total_under_faults;
    slow_case "socket round trip" test_socket_round_trip;
    case "oversized line over socket" test_socket_oversized_line;
    case "connection limit refuses with typed line"
      test_socket_connection_limit;
    case "pipelining connection cannot starve another"
      test_pipelining_cannot_starve;
    case "session-end exceptions classify by type"
      test_classify_session_exn;
    slow_case "idle timeout counted as typed session end"
      test_idle_timeout_counted;
    slow_case "peer disconnect counted as peer_reset"
      test_peer_reset_counted;
    QCheck_alcotest.to_alcotest ~long:true prop_identical_responses;
    slow_case "server-scope hit counters monotone"
      test_hit_counters_monotone
  ]
