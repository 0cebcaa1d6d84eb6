(* The serve layer: the JSON codec round-trips, every op dispatches to a
   well-formed terminal response, malformed input is a [bad_request] (never
   an escaped exception), transient injected faults retry and then surface
   as the [fault] code, and the stdio session answers every line exactly
   once — shedding with [overloaded] beyond the admission limit, and
   draining without waiting on a still-open stdin. *)

open Tgd_engine
open Helpers
module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Transport = Tgd_net.Transport
module Dispatcher = Tgd_net.Dispatcher
module Admission = Tgd_net.Admission

let req src =
  match Json.of_string src with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad test request %s: %s" src m

let handle ?(config = Server.default_config) src =
  Server.handle config (req src)

let get_ok resp =
  match Json.member "ok" resp with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response without ok: %s" (Json.to_string resp)

let error_code resp =
  match Option.bind (Json.member "error" resp) (Json.member "code") with
  | Some (Json.String c) -> c
  | _ -> Alcotest.failf "no error code in %s" (Json.to_string resp)

let result_field name resp =
  match Option.bind (Json.member "result" resp) (Json.member name) with
  | Some v -> v
  | None -> Alcotest.failf "no result.%s in %s" name (Json.to_string resp)

(* -- the JSON codec ------------------------------------------------------ *)

let test_json_parse_basics () =
  (match Json.of_string {| {"a": [1, -2.5, true, null], "b": "x\ny"} |} with
  | Ok
      (Json.Obj
        [ ( "a",
            Json.List
              [ Json.Int 1; Json.Float f; Json.Bool true; Json.Null ] );
          ("b", Json.String "x\ny")
        ])
    when f = -2.5 -> ()
  | Ok j -> Alcotest.failf "misparsed: %s" (Json.to_string j)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Json.of_string {| "snow\u2603man \ud83d\ude00" |} with
  | Ok (Json.String s) ->
    check_bool "unicode escapes incl. surrogate pair" true
      (s = "snow\xe2\x98\x83man \xf0\x9f\x98\x80")
  | _ -> Alcotest.fail "unicode escape parse failed");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let gen_json : Json.t QCheck.Gen.t =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [ return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) small_signed_int;
              map (fun f -> Json.Float (Float.of_int f /. 8.)) small_signed_int;
              map (fun s -> Json.String s) (small_string ~gen:printable)
            ]
        in
        if n <= 0 then scalar
        else
          oneof
            [ scalar;
              map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (small_string ~gen:printable) (self (n / 2))))
            ]))

(* printing may render floats and duplicate-keyed objects non-uniquely, so
   the property is print-parse-print stability, not structural equality *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"to_string ∘ of_string stabilizes" ~count:200
    (QCheck.make ~print:Json.to_string gen_json)
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Error _ -> false
      | Ok j' -> Json.to_string j' = Json.to_string (Result.get_ok (Json.of_string (Json.to_string j'))))

(* -- dispatch: one well-formed terminal response per request ------------- *)

let test_classify_op () =
  let resp = handle {| {"id": 7, "op": "classify",
                        "tgds": "E(x,y) -> exists z. E(y,z)."} |} in
  check_bool "ok" true (get_ok resp);
  check_bool "id echoed" true (Json.member "id" resp = Some (Json.Int 7));
  check_bool "bounds" true
    (result_field "n" resp = Json.Int 2 && result_field "m" resp = Json.Int 1)

let test_chase_op () =
  let resp = handle {| {"id": 1, "op": "chase",
                        "tgds": "E(x,y) -> S(y).",
                        "facts": "E(a,b). E(b,c)."} |} in
  check_bool "ok" true (get_ok resp);
  check_bool "terminated" true
    (result_field "outcome" resp = Json.String "terminated");
  check_bool "fact count" true (result_field "fact_count" resp = Json.Int 4)

let test_chase_op_truncates () =
  (* fact caps are never promoted away by a termination certificate, so
     this truncation is deterministic *)
  let resp = handle {| {"id": 1, "op": "chase", "max_facts": 5,
                        "tgds": "E(x,y), E(y,z) -> E(x,z).",
                        "facts": "E(a,b). E(b,c). E(c,d). E(d,e)."} |} in
  check_bool "ok (truncation is a result, not an error)" true (get_ok resp);
  check_bool "truncated" true
    (result_field "outcome" resp = Json.String "truncated")

let test_entail_op () =
  let proved = handle {| {"id": 2, "op": "entail",
                          "tgds": "E(x,y) -> S(y).",
                          "goal": "E(x,y), E(y,z) -> S(z)."} |} in
  check_bool "proved" true (result_field "answer" proved = Json.String "proved");
  let disproved = handle {| {"id": 3, "op": "entail",
                             "tgds": "E(x,y) -> S(y).",
                             "goal": "S(x) -> E(x,x)."} |} in
  check_bool "disproved" true
    (result_field "answer" disproved = Json.String "disproved")

let test_rewrite_op () =
  let resp = handle {| {"id": 4, "op": "rewrite", "direction": "g2l",
                        "tgds": "E(x,y) -> exists z. E(y,z)."} |} in
  check_bool "ok" true (get_ok resp);
  check_bool "rewritable" true
    (result_field "outcome" resp = Json.String "rewritable");
  let bad = handle {| {"id": 5, "op": "rewrite", "direction": "sideways",
                       "tgds": "E(x,y) -> S(y)."} |} in
  check_bool "unknown direction is bad_request" true
    ((not (get_ok bad)) && error_code bad = "bad_request")

let test_analyze_op () =
  let resp = handle {| {"id": 6, "op": "analyze",
                        "tgds": "E(x,y) -> S(y)."} |} in
  check_bool "ok" true (get_ok resp);
  match result_field "certificate" resp with
  | Json.String _ -> ()
  | j -> Alcotest.failf "unexpected certificate %s" (Json.to_string j)

let test_analyze_cached () =
  let module Memo = Tgd_engine.Memo in
  Memo.clear Server.analyze_memo;
  let r1 = handle {| {"id": 1, "op": "analyze",
                      "tgds": "P(x) -> exists z. Q(x,z)."} |} in
  let misses = (Memo.counters Server.analyze_memo).Memo.misses in
  (* same ontology under different whitespace: the canonical key hits *)
  let r2 = handle {| {"id": 2, "op": "analyze",
                      "tgds": "P(x)  ->  exists z.  Q(x,z)."} |} in
  check_bool "first request missed" true (misses > 0);
  check_bool "second request hit" true
    ((Memo.counters Server.analyze_memo).Memo.hits > 0
    && (Memo.counters Server.analyze_memo).Memo.misses = misses);
  check_bool "identical reports" true
    (Json.to_string (Option.get (Json.member "result" r1))
    = Json.to_string (Option.get (Json.member "result" r2)))

let test_bad_requests () =
  List.iter
    (fun (label, src) ->
      let resp = handle src in
      check_bool (label ^ " not ok") false (get_ok resp);
      check_bool (label ^ " coded") true (error_code resp = "bad_request"))
    [ ("missing op", {| {"id": 1} |});
      ("non-string op", {| {"id": 1, "op": 3} |});
      ("unknown op", {| {"id": 1, "op": "fly"} |});
      ("missing tgds", {| {"id": 1, "op": "classify"} |});
      ("unparsable tgds", {| {"id": 1, "op": "classify", "tgds": "E(x"} |});
      ("non-string field", {| {"id": 1, "op": "classify", "tgds": 9} |});
      ("bad goal", {| {"id": 1, "op": "entail",
                       "tgds": "E(x,y) -> S(y).", "goal": "E(x"} |});
      ("bad facts", {| {"id": 1, "op": "chase",
                        "tgds": "E(x,y) -> S(y).", "facts": "E(a"} |})
    ]

(* -- fault handling: retries, then a typed fault response ---------------- *)

let test_fault_exhausts_retries () =
  let config = { Server.default_config with Server.retries = 2;
                 backoff_base_s = 1e-4 } in
  let resp =
    Chaos.with_config { Chaos.default_config with Chaos.raise_p = 1.0 }
      (fun () ->
        Server.handle config (req {| {"id": 9, "op": "classify",
                                      "tgds": "E(x,y) -> S(y)."} |}))
  in
  check_bool "not ok" false (get_ok resp);
  check_bool "fault code" true (error_code resp = "fault");
  check_bool "id still echoed" true (Json.member "id" resp = Some (Json.Int 9))

let test_fault_then_retry_succeeds () =
  (* raise_p = 1 but only the first attempts draw faults once the config
     is swapped for a quiet one mid-flight is hard to stage; instead run
     many requests at p = 0.5 and require every response to be terminal,
     with both outcomes observed *)
  let config = { Server.default_config with Server.retries = 6;
                 backoff_base_s = 1e-5 } in
  let oks = ref 0 and faults = ref 0 in
  Chaos.with_config { Chaos.default_config with Chaos.seed = 3; raise_p = 0.5 }
    (fun () ->
      for i = 1 to 30 do
        let resp =
          Server.handle config
            (req (Printf.sprintf
                    {| {"id": %d, "op": "classify", "tgds": "E(x,y) -> S(y)."} |}
                    i))
        in
        if get_ok resp then incr oks else incr faults
      done);
  check_int "every request answered" 30 (!oks + !faults);
  (* p = 0.5 over 7 attempts each: all-fault for any single request has
     probability 2^-7; some ok must appear over 30 requests *)
  check_bool "retries rescued some requests" true (!oks > 0)

(* -- per-request checkpoints (serve --checkpoint-dir) -------------------- *)

(* A transitive closure over a path: a dozen rounds, one delta record per
   round at [checkpoint_every = 1], and no nulls, so a resumed answer is
   literally the cold one. *)
let path_chase_request ?(extra = "") () =
  Printf.sprintf
    {| {"id": 1, "op": "chase", %s"tgds": "E(x,y) -> T(x,y). T(x,y), E(y,z) -> T(x,z).", "facts": "%s"} |}
    extra
    (String.concat " "
       (List.init 12 (fun i -> Printf.sprintf "E(c%d,c%d)." i (i + 1))))

let ckpt_counter = ref 0

(* A fresh checkpoint directory, emptied and removed afterwards. *)
let with_ckpt_dir f =
  incr ckpt_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tgd_serve_ckpt_%d_%d" (Unix.getpid ()) !ckpt_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun name -> Delta_log.remove (Tgd_chase.Chase.log_config ~dir ~name ()))
        (Delta_log.scan ~dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let ckpt_config ?(retries = 10) dir =
  { Server.default_config with
    Server.checkpoint_dir = Some dir;
    checkpoint_every = 1;
    retries;
    backoff_base_s = 1e-5
  }

let base_writes () = (Stats.global ()).Stats.snapshots

let same_facts resp cold =
  check_bool "ok" true (get_ok resp);
  check_bool "same facts as an uncheckpointed run" true
    (result_field "facts" resp = result_field "facts" cold)

(* A chase request whose only attempt faults mid-chase, leaving its chain
   on disk: searched over chaos seeds, deterministically. *)
let fault_leaving_chain dir =
  let config = ckpt_config ~retries:0 dir in
  let faulted seed =
    let resp =
      Chaos.with_config
        { Chaos.default_config with Chaos.seed; raise_p = 0.05 }
        (fun () -> Server.handle config (req (path_chase_request ())))
    in
    (not (get_ok resp)) && Delta_log.scan ~dir <> []
  in
  if not (List.exists faulted (List.init 100 Fun.id)) then
    Alcotest.fail "no seed faulted the chase after its chain started"

let test_checkpoint_fault_retries_resume () =
  let cold = handle (path_chase_request ()) in
  (* the attempts whose [serve.request] step faulted never reached the
     chase; every other attempt but the last faulted inside it *)
  let request_faults chaos n =
    Chaos.with_config chaos (fun () ->
        List.init n (fun _ ->
            match Chaos.step ~site:"serve.request" with
            | () -> 0
            | exception Chaos.Injected _ -> 1))
    |> List.fold_left ( + ) 0
  in
  let run seed =
    with_ckpt_dir (fun dir ->
        let chaos = { Chaos.default_config with Chaos.seed; raise_p = 0.02 } in
        let bases0 = base_writes () in
        let resp, attempts =
          Chaos.with_config chaos (fun () ->
              let resp = Server.handle (ckpt_config dir) (req (path_chase_request ())) in
              (resp, Chaos.shot_count ~site:"serve.request"))
        in
        let chases = attempts - request_faults chaos attempts in
        if get_ok resp && chases >= 2 then
          Some (resp, base_writes () - bases0, Delta_log.scan ~dir)
        else None)
  in
  match List.find_map run (List.init 100 Fun.id) with
  | None -> Alcotest.fail "no seed faulted the chase and then answered ok"
  | Some (resp, bases, left) ->
    same_facts resp cold;
    check_int "one base: every retry resumed the chain" 1 bases;
    check_bool "no chain after the terminal ok" true (left = [])

let test_checkpoint_fault_keeps_chain () =
  let cold = handle (path_chase_request ()) in
  with_ckpt_dir (fun dir ->
      fault_leaving_chain dir;
      (* the retry-exhausted [fault] kept the chain: a resend resumes it
         (no new base) and the terminal ok removes it *)
      let bases0 = base_writes () in
      let resp = Server.handle (ckpt_config dir) (req (path_chase_request ())) in
      same_facts resp cold;
      check_int "resumed, no new base" 0 (base_writes () - bases0);
      check_bool "no chain after the terminal ok" true (Delta_log.scan ~dir = []))

let test_checkpoint_truncation_removes_chain () =
  with_ckpt_dir (fun dir ->
      List.iter
        (fun (extra, reason) ->
          let resp =
            Server.handle (ckpt_config dir) (req (path_chase_request ~extra ()))
          in
          check_bool "ok" true (get_ok resp);
          check_bool ("truncated: " ^ reason) true
            (result_field "reason" resp = Json.String reason);
          check_bool ("no chain after a " ^ reason ^ " truncation") true
            (Delta_log.scan ~dir = []))
        [ ({|"rounds": 3, |}, "rounds"); ({|"max_facts": 30, |}, "facts") ])

let test_checkpoint_unverifiable_chain_dropped () =
  let cold = handle (path_chase_request ()) in
  with_ckpt_dir (fun dir ->
      fault_leaving_chain dir;
      (* damage every base: no generation verifies *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".base" then begin
            let p = Filename.concat dir f in
            let ic = open_in_bin p in
            let b = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
            close_in ic;
            let last = Bytes.length b - 1 in
            Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
            let oc = open_out_bin p in
            output_bytes oc b;
            close_out oc
          end)
        (Sys.readdir dir);
      let resp = Server.handle (ckpt_config dir) (req (path_chase_request ())) in
      same_facts resp cold;
      check_bool "no chain after the terminal ok" true (Delta_log.scan ~dir = []))

(* -- the stdio session ----------------------------------------------------- *)

let stdio_config ?(server = Server.default_config)
    ?(queue_limit = server.Server.queue_limit) () =
  { Transport.default_config with
    Transport.dispatcher =
      { Dispatcher.server;
        workers = 2;
        admission = Admission.default_config ~queue_limit
      };
    drain_grace_s = 2.0
  }

(* Run a stdio session over channels backed by temp files until
   end-of-input. *)
let with_serve ?server ?queue_limit lines =
  let in_path = Filename.temp_file "serve_in" ".ndjson" in
  let out_path = Filename.temp_file "serve_out" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove in_path; Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc;
      let ic = open_in in_path in
      let out = open_out out_path in
      let code =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic; close_out_noerr out)
          (fun () ->
            Transport.wait
              (Transport.stdio (stdio_config ?server ?queue_limit ()) ic out))
      in
      let ic = open_in out_path in
      let rec read acc =
        match input_line ic with
        | l -> read (req l :: acc)
        | exception End_of_file -> close_in ic; List.rev acc
      in
      (code, read []))

let test_serve_loop_answers_everything () =
  let code, resps =
    with_serve
      [ {| {"id": 1, "op": "classify", "tgds": "E(x,y) -> S(y)."} |};
        "this is not json";
        {| {"id": 2, "op": "entail", "tgds": "E(x,y) -> S(y).", "goal": "E(x,y) -> S(y)."} |};
        "";
        {| {"id": 3, "op": "nope"} |}
      ]
  in
  check_int "exit code" 0 code;
  (* blank lines are skipped; everything else gets a terminal response *)
  check_int "one response per non-blank line" 4 (List.length resps);
  check_bool "in order" true
    (List.map (fun r -> Json.member "id" r) resps
    = [ Some (Json.Int 1); Some Json.Null; Some (Json.Int 2);
        Some (Json.Int 3) ])

let test_serve_loop_sheds_overload () =
  (* an admission limit of 0 sheds everything: each of the 12 lines still
     gets its own typed terminal response, in order *)
  let lines =
    List.init 12 (fun i ->
        Printf.sprintf
          {| {"id": %d, "op": "classify", "tgds": "E(x,y) -> S(y)."} |} i)
  in
  let code, resps = with_serve ~queue_limit:0 lines in
  check_int "exit code" 0 code;
  check_bool "every line answered overloaded, in order" true
    (List.map
       (fun r -> (Json.member "id" r, (not (get_ok r)) && error_code r = "overloaded"))
       resps
    = List.init 12 (fun i -> (Some (Json.Int i), true)))

let test_stdio_stats_and_batch () =
  let code, resps =
    talk_stdio (stdio_config ())
      [ {| {"id": 1, "op": "classify", "tgds": "E(x,y) -> S(y)."} |};
        {| {"id": 2, "op": "batch", "requests": [{"id": "a", "op": "classify", "tgds": "E(x,y) -> S(y)."}, {"id": "b", "op": "entail", "tgds": "E(x,y) -> S(y).", "goal": "E(x,y) -> S(y)."}]} |};
        {| {"id": 3, "op": "stats"} |}
      ]
  in
  check_int "exit code" 0 code;
  match List.map req resps with
  | [ _; batch; stats ] ->
    (match Option.bind (Json.member "result" batch) (Json.member "responses") with
    | Some (Json.List [ a; b ]) ->
      check_bool "batch sub-responses ok" true (get_ok a && get_ok b)
    | _ -> Alcotest.failf "batch without two responses: %s" (Json.to_string batch));
    check_bool "stats counts the served requests" true
      (Option.bind (Json.member "result" stats) (Json.member "requests_served")
      = Some (Json.Int 3))
  | _ -> Alcotest.fail "expected three responses"

(* With stdin still open, a drain answers what was read and returns
   within the grace: the reader blocked on stdin is not waited for. *)
let test_stdio_drain_with_open_stdin () =
  let config = stdio_config () in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let t =
    Transport.stdio config
      (Unix.in_channel_of_descr in_r)
      (Unix.out_channel_of_descr out_w)
  in
  let oc = Unix.out_channel_of_descr in_w
  and ic = Unix.in_channel_of_descr out_r in
  for i = 1 to 3 do
    Printf.fprintf oc
      {| {"id": %d, "op": "classify", "tgds": "E(x,y) -> S(y)."} |} i;
    output_char oc '\n'
  done;
  flush oc;
  let answered = List.init 3 (fun _ -> get_ok (req (input_line ic))) in
  check_bool "in-flight requests answered" true
    (answered = [ true; true; true ]);
  let t0 = Unix.gettimeofday () in
  Transport.drain t;
  check_int "drain exits 0" 0 (Transport.wait t);
  check_bool "within the grace" true
    (Unix.gettimeofday () -. t0 < config.Transport.drain_grace_s);
  (* end-of-input releases the reader; the session then counts as
     drained *)
  Unix.close in_w;
  let drained () =
    Json.member "drained"
      (Transport.session_counters_json (Transport.session_ends t))
    = Some (Json.Int 1)
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (drained ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check_bool "session ended drained" true (drained ());
  List.iter Unix.close [ in_r; out_r; out_w ]

(* -- bounded NDJSON line reader ------------------------------------------ *)

let read_all ?max_bytes content =
  let path = Filename.temp_file "serve_lines" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match Json.read_line_bounded ?max_bytes ic with
            | Json.Eof -> List.rev acc
            | frame -> go (frame :: acc)
          in
          go []))

let test_read_line_bounded () =
  (* CRLF endings are stripped; a trailing partial line still arrives *)
  (match read_all "a\r\nbb\nccc" with
  | [ Json.Line "a"; Json.Line "bb"; Json.Line "ccc" ] -> ()
  | frames -> Alcotest.failf "unexpected frames (%d)" (List.length frames));
  (* empty input is immediately Eof; lone newline is one empty line *)
  check_int "empty input" 0 (List.length (read_all ""));
  (match read_all "\n" with
  | [ Json.Line "" ] -> ()
  | _ -> Alcotest.fail "lone newline should be one empty line");
  (* an over-cap line is consumed (not buffered) and reported with its
     length; the following line is still readable *)
  (match read_all ~max_bytes:8 "0123456789abcdef\nshort\n" with
  | [ Json.Oversized 16; Json.Line "short" ] -> ()
  | [ Json.Oversized n; _ ] -> Alcotest.failf "oversized length %d" n
  | _ -> Alcotest.fail "oversized line not isolated");
  (* a line exactly at the cap passes *)
  match read_all ~max_bytes:5 "12345\n123456\n" with
  | [ Json.Line "12345"; Json.Oversized 6 ] -> ()
  | _ -> Alcotest.fail "cap boundary misjudged"

let test_serve_rejects_oversized_line () =
  let server = { Server.default_config with Server.max_line_bytes = 128 } in
  let big =
    Printf.sprintf {| {"id": 1, "op": "classify", "tgds": "%s"} |}
      (String.make 200 'x')
  in
  let code, resps =
    with_serve ~server
      [ big; {| {"id": 2, "op": "classify", "tgds": "E(x,y) -> S(y)."} |} ]
  in
  check_int "exit code" 0 code;
  check_int "both lines answered" 2 (List.length resps);
  match resps with
  | [ r1; r2 ] ->
    check_bool "oversized is typed" true
      ((not (get_ok r1)) && error_code r1 = "request_too_large");
    check_bool "loop survives to serve the next line" true (get_ok r2)
  | _ -> Alcotest.fail "expected two responses"

let suite =
  [ case "json parses and rejects" test_json_parse_basics;
    case "bounded line reader: crlf, partials, oversized"
      test_read_line_bounded;
    case "serve rejects oversized lines" test_serve_rejects_oversized_line;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    case "classify op" test_classify_op;
    case "chase op" test_chase_op;
    case "chase op truncates honestly" test_chase_op_truncates;
    case "entail op" test_entail_op;
    case "rewrite op" test_rewrite_op;
    case "analyze op" test_analyze_op;
    case "analyze reports cached by ontology digest" test_analyze_cached;
    case "malformed requests are bad_request" test_bad_requests;
    case "faults exhaust retries into a typed response"
      test_fault_exhausts_retries;
    case "retries rescue transient faults" test_fault_then_retry_succeeds;
    case "checkpointed chase: faulted attempts resume one chain"
      test_checkpoint_fault_retries_resume;
    case "checkpointed chase: a fault response keeps the chain"
      test_checkpoint_fault_keeps_chain;
    case "checkpointed chase: a deterministic truncation removes it"
      test_checkpoint_truncation_removes_chain;
    case "checkpointed chase: an unverifiable chain is dropped"
      test_checkpoint_unverifiable_chain_dropped;
    case "serve loop answers every line" test_serve_loop_answers_everything;
    case "serve loop sheds overload" test_serve_loop_sheds_overload;
    case "stdio answers stats and batch" test_stdio_stats_and_batch;
    case "stdio drain does not wait on an open stdin"
      test_stdio_drain_with_open_stdin
  ]
