(* Serving workloads: a [tgdtool serve] child process driven over its Unix
   socket by closed-loop client connections from this process, the
   in-process replay that times each serving layer, and the layer ladder.

   The repository's clients send a request and wait for its reply, so the
   load is a closed loop: each connection sends its next request when the
   previous reply has arrived and been checked. *)

open Harness
module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Stats = Tgd_engine.Stats

(* ---- the server under test ------------------------------------------- *)

type spec = { shards : int; workers : int; cache_bytes : int option }

let warm_spec = { shards = 1; workers = 2; cache_bytes = None }
let cold_spec = { shards = 2; workers = 1; cache_bytes = Some 8_388_608 }
let connections = 2

type server = { pid : int; sock : string; spec : spec }

let sock_seq = ref 0

(* Relative to the working directory, so the path stays far below the
   108-byte limit of a Unix socket address wherever the checkout lives. *)
let fresh_sock dir =
  incr sock_seq;
  Filename.concat dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !sock_seq)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error (_, _, _) ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let rpc c line =
  send c line;
  input_line c.ic

let query sock line =
  Option.bind (connect sock) (fun c ->
      let r =
        try Some (rpc c line)
        with End_of_file | Sys_error _ | Unix.Unix_error (_, _, _) -> None
      in
      close c;
      r)

let result_of line =
  match Json.of_string line with Ok j -> Json.member "result" j | Error _ -> None

let stats sock = Option.bind (query sock {|{"id":0,"op":"stats"}|}) result_of
let fleet_status sock = Option.bind (query sock {|{"id":0,"op":"fleet_status"}|}) result_of

let rec at path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (at rest)

let int_at path j = Option.value (Option.bind (at path j) Json.as_int) ~default:0
let float_at path j = Option.value (Option.bind (at path j) Json.as_float) ~default:0.

let shard_socks s = List.init s.spec.shards (fun i -> Printf.sprintf "%s.shard%d" s.sock i)

(* Live means: the pool reports all its workers, and for a fleet the
   router reports every shard live and every shard answers [stats]. *)
let ready s =
  let pool_ok sock =
    match stats sock with
    | Some st -> int_at [ "pool"; "alive" ] st >= s.spec.workers
    | None -> false
  in
  if s.spec.shards = 1 then pool_ok s.sock
  else
    match fleet_status s.sock with
    | Some fs -> int_at [ "alive" ] fs = s.spec.shards && List.for_all pool_ok (shard_socks s)
    | None -> false

let serve_args ~sock spec =
  [ "serve"; "--socket"; sock; "--workers"; string_of_int spec.workers; "--drain-grace"; "1" ]
  @ (if spec.shards > 1 then [ "--shards"; string_of_int spec.shards ] else [])
  @ match spec.cache_bytes with Some b -> [ "--cache-bytes"; string_of_int b ] | None -> []

(* Start a server and time it from the spawn until it is live.  Start-up
   takes a few milliseconds, so the poll is fine-grained: a coarse one
   would round the set-up time to its steps. *)
let start ~tgdtool ~dir spec =
  let sock = fresh_sock dir in
  let t0 = now_ns () in
  let pid = spawn tgdtool (serve_args ~sock spec) in
  let s = { pid; sock; spec } in
  let deadline = t0 + ns_of_s 60. in
  let rec wait () =
    if not (ready s) then begin
      if wait_exit ~timeout:0. pid <> None then failwith "tgdtool serve exited during start-up";
      if now_ns () > deadline then failwith "tgdtool serve not live after 60 s";
      Unix.sleepf 0.0002;
      wait ()
    end
  in
  wait ();
  (s, elapsed_s t0)

let stop s = ignore (Harness.stop s.pid)

(* ---- server-side counters -------------------------------------------- *)

type counters = {
  cpu_s : float;  (** utime + stime over the router and every shard *)
  hits : int;
  misses : int;
  evictions : int;
  cache_bytes : int;
  served : int;
  shed : int;
  chunks : int;
  stolen : int;
  pool_merge_s : float;
  session_errors : int;
  failovers : int;
  pids : int list;
}

let counters s =
  let socks, pids, failovers, router_errors =
    if s.spec.shards = 1 then ([ s.sock ], [ s.pid ], 0, 0)
    else
      let fs = Option.value (fleet_status s.sock) ~default:(Json.Obj []) in
      let shard_pids =
        match at [ "shard" ] fs with
        | Some (Json.List l) -> List.map (int_at [ "pid" ]) l |> List.filter (fun p -> p > 0)
        | _ -> []
      in
      ( shard_socks s,
        s.pid :: shard_pids,
        int_at [ "router"; "failovers" ] fs,
        int_at [ "router"; "session_ends"; "errors" ] fs )
  in
  let sts = List.map (fun sock -> Option.value (stats sock) ~default:(Json.Obj [])) socks in
  let sum path = List.fold_left (fun acc st -> acc + int_at path st) 0 sts in
  { cpu_s = List.fold_left (fun acc p -> acc +. cpu_s p) 0. pids;
    hits = sum [ "cache"; "hits" ];
    misses = sum [ "cache"; "misses" ];
    evictions = sum [ "cache"; "evictions" ];
    cache_bytes = sum [ "cache"; "approx_bytes" ];
    served = sum [ "requests_served" ];
    shed = sum [ "requests_shed" ];
    chunks = sum [ "pool"; "chunks" ];
    stolen = sum [ "pool"; "chunks_stolen" ];
    pool_merge_s =
      List.fold_left (fun acc st -> acc +. float_at [ "pool"; "merge_time_s" ] st) 0. sts;
    session_errors = router_errors + sum [ "sessions"; "errors" ];
    failovers;
    pids
  }

let rss_mb pids = float_of_int (List.fold_left (fun acc p -> acc + vm_hwm_kb p) 0 pids) /. 1024.

(* ---- closed-loop client phase ------------------------------------------ *)

type phase = {
  starts : int array;  (** send time of every answered request *)
  stops : int array;  (** arrival time of its reply *)
  t0 : int;
  t1 : int;
  sent : int;
  failed : int;  (** error, malformed, wrong or missing replies *)
  client_cpu_s : float;
  cpu_marks : float array;  (** [sample ()] at the start and every window boundary *)
}

(* [next c k] is the request index connection [c] sends as its [k]-th
   request, or [None] when it has nothing left to send. *)
let run_phase ?(sample = fun () -> 0.) ~sock ~seconds ~next ~line ~check () =
  let marks = Floats.create () in
  Floats.push marks (sample ());
  let t0 = now_ns () in
  let deadline = t0 + ns_of_s seconds in
  let cpu0 = self_cpu_s () in
  let client c () =
    let starts = Ints.create () and stops = Ints.create () in
    let sent = ref 0 and failed = ref 0 in
    let conn = ref (connect sock) in
    let request cn i =
      incr sent;
      Trace.span ~req:i "client.request" (fun () ->
          let s = now_ns () in
          match
            Trace.span "client.send" (fun () -> send cn (line i));
            Trace.span "client.wait" (fun () -> input_line cn.ic)
          with
          | resp ->
            Ints.push starts s;
            Ints.push stops (now_ns ());
            if not (Trace.span "client.check" (fun () -> check i resp)) then incr failed
          | exception (End_of_file | Sys_error _ | Unix.Unix_error (_, _, _)) ->
            incr failed;
            close cn;
            conn := connect sock)
    in
    let rec loop k =
      if now_ns () < deadline then
        match !conn with
        | None -> incr failed
        | Some cn -> (
          match next c k with
          | None -> ()
          | Some i ->
            request cn i;
            loop (k + 1))
    in
    loop 0;
    Option.iter close !conn;
    (Ints.to_array starts, Ints.to_array stops, !sent, !failed)
  in
  let running = Atomic.make connections in
  let clients =
    List.init connections (fun c ->
        Domain.spawn (fun () ->
            let r = client c () in
            Atomic.decr running;
            (r, now_ns ())))
  in
  (* CPU marks at window boundaries while the clients still run *)
  let rec mark k =
    let at = t0 + ns_of_s (window *. float_of_int k) in
    if at <= deadline then begin
      while Atomic.get running > 0 && now_ns () < at do
        Unix.sleepf (Float.min 0.05 (s_of_ns (at - now_ns ())))
      done;
      if Atomic.get running > 0 then begin
        Floats.push marks (sample ());
        mark (k + 1)
      end
    end
  in
  mark 1;
  let joined = List.map Domain.join clients in
  let rs = List.map fst joined in
  let t1 = List.fold_left (fun acc (_, t) -> max acc t) t0 joined in
  { starts = Array.concat (List.map (fun (s, _, _, _) -> s) rs);
    stops = Array.concat (List.map (fun (_, e, _, _) -> e) rs);
    t0;
    t1;
    sent = List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 rs;
    failed = List.fold_left (fun acc (_, _, _, f) -> acc + f) 0 rs;
    client_cpu_s = self_cpu_s () -. cpu0;
    cpu_marks = Floats.to_array marks
  }

let latencies starts stops = Array.mapi (fun i s -> s_of_ns (stops.(i) - s)) starts

let phase_rate p = fst (ops_per_s ~t0:p.t0 ~t1:p.t1 p.starts p.stops)

(* Server CPU per operation in each window with a CPU mark at both ends,
   median over windows (with every window's value); a phase shorter than
   a window uses its total. *)
let cpu_per_op p ~cpu_end ~ok_ops =
  let rates = window_rates ~t0:p.t0 ~t1:p.t1 p.starts p.stops in
  let w = effective_window ~t0:p.t0 ~t1:p.t1 in
  let m = p.cpu_marks in
  let per_window =
    List.init (min (Array.length rates) (Array.length m - 1)) (fun k ->
        (m.(k + 1) -. m.(k)) /. Float.max 1. (rates.(k) *. w))
  in
  if per_window = [] then ((cpu_end -. m.(0)) /. float_of_int (max 1 ok_ops), [||])
  else
    let per_window = Array.of_list per_window in
    (median per_window, per_window)

(* ---- in-process replay: each serving layer timed from outside --------- *)

type replay = {
  r_sent : int;
  r_failed : int;
  engine : Stats.t;  (** engine work of every replayed request *)
  minor_words : float;
  major_collections : int;
}

(* Feed request lines through the layers a server runs for them, each
   call in its own span; [check i response_line] validates the answer.
   Runs with tracing on. *)
let replay lines ~check =
  let cfg = Server.default_config in
  let adm = Tgd_net.Admission.default_config ~queue_limit:cfg.Server.queue_limit in
  let stats0 = Stats.copy (Stats.global ()) and gc0 = Gc.quick_stat () in
  let failed = ref 0 in
  Array.iteri
    (fun i line ->
      Trace.span ~req:i "replay.request" (fun () ->
          match Trace.span "json.decode" (fun () -> Json.of_string line) with
          | Error _ -> incr failed
          | Ok req ->
            (match Option.bind (Json.member "tgds" req) Json.as_string with
            | Some src -> (
              match Trace.span "parse.tgds" (fun () -> Tgd_parse.Parse.tgds src) with
              | Ok sigma ->
                ignore
                  (Trace.span "analysis.classify" (fun () ->
                       Tgd_analysis.Lattice.classify sigma))
              | Error _ -> incr failed)
            | None -> ());
            ignore
              (Trace.span "admission.predict" (fun () -> Tgd_net.Admission.predict adm req));
            let resp = Trace.span "server.handle" (fun () -> Server.handle cfg req) in
            let out = Trace.span "json.encode" (fun () -> Json.to_string resp) in
            if not (check i out) then incr failed))
    lines;
  let gc1 = Gc.quick_stat () in
  { r_sent = Array.length lines;
    r_failed = !failed;
    engine = Stats.diff (Stats.global ()) stats0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections
  }

let replay_metrics () =
  let m name unit scale span = metric name unit (scale (Trace.median_s span)) in
  [ m "json.decode_us" "us" us "json.decode";
    m "json.encode_us" "us" us "json.encode";
    m "parse.tgds_us" "us" us "parse.tgds";
    m "admission.predict_us" "us" us "admission.predict";
    m "server.handle_us" "us" us "server.handle";
    m "analysis.classify_ms" "ms" ms "analysis.classify"
  ]

(* Engine counters per operation.  [probes] holds each operation's probe
   count, whose spread is 0 at jobs 1 and not at jobs 2. *)
let engine_metrics ~ops (e : Stats.t) ~probes =
  let per x = ratio x (float_of_int (max 1 ops)) in
  [ metric "seminaive.match_s" "s" (per e.Stats.match_time);
    metric "seminaive.fire_s" "s" (per e.Stats.fire_time);
    metric "seminaive.merge_s" "s" (per e.Stats.merge_time);
    metric "fact_index.probes_per_fired" "count" (fratio e.Stats.probes e.Stats.fired);
    metric "engine.fired" "count" (per (float_of_int e.Stats.fired));
    metric "engine.rounds" "count" (per (float_of_int e.Stats.rounds));
    metric "engine.probes_spread_frac" "frac" (spread probes);
    metric "entailment.memo_hit_rate" "frac" (Stats.hit_rate e)
  ]

let gc_metrics ~ops ~minor_words ~major_collections =
  let per x = ratio x (float_of_int (max 1 ops)) in
  [ metric "gc.minor_words_per_op" "words" (per minor_words);
    metric "gc.major_collections_per_op" "count" (per (float_of_int major_collections));
    metric "gc.top_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.)
  ]

(* ---- the layer ladder ----------------------------------------------------- *)

(* The serve_warm request mix, warm, through five surfaces one request
   at a time: each step down the list adds one layer (pool hop and fair
   queue, stdio loop, socket transport, fleet router).  Every in-process
   rung decodes and encodes like a server does. *)
let rung_s = 0.5

let ladder ~tgdtool ~dir ~seed =
  let w = Gen.serve_warm ~seed in
  let sent = ref 0 and failed = ref 0 in
  let rung name f =
    let lat = Floats.create () in
    let ask i =
      incr sent;
      let s = now_ns () in
      let resp = try Some (f w.Gen.lines.(i)) with End_of_file | Sys_error _ -> None in
      let e = now_ns () in
      if resp <> Some w.Gen.expected.(i) then incr failed;
      s_of_ns (e - s)
    in
    for i = 0 to w.Gen.distinct - 1 do
      ignore (ask i)
    done;
    let t0 = now_ns () and i = ref w.Gen.distinct in
    while elapsed_s t0 < rung_s && !i < Array.length w.Gen.lines do
      Floats.push lat (ask !i);
      incr i
    done;
    metric name "us" (us (median (Floats.to_array lat))) ~samples:lat.Floats.n
  in
  let over_socket name spec =
    let s, _ = start ~tgdtool ~dir spec in
    let c = Option.get (connect s.sock) in
    let m = rung name (rpc c) in
    close c;
    stop s;
    m
  in
  let stdio =
    let r_in, w_in = Unix.pipe ~cloexec:true () and r_out, w_out = Unix.pipe ~cloexec:true () in
    let pid = spawn ~stdin:r_in ~stdout:w_out tgdtool [ "serve" ] in
    Unix.close r_in;
    Unix.close w_out;
    let oc = Unix.out_channel_of_descr w_in and ic = Unix.in_channel_of_descr r_out in
    let m =
      rung "ladder.stdio_us" (fun line ->
          output_string oc line;
          output_char oc '\n';
          flush oc;
          input_line ic)
    in
    close_out oc;
    if wait_exit ~timeout:10. pid = None then ignore (Harness.stop pid);
    close_in ic;
    m
  in
  let socket = over_socket "ladder.socket_us" warm_spec in
  let fleet = over_socket "ladder.fleet_us" cold_spec in
  let in_process handle line =
    match Json.of_string line with
    | Ok req -> Json.to_string (handle req)
    | Error e -> e
  in
  let direct = rung "ladder.handle_us" (in_process (Server.handle Server.default_config)) in
  let dispatcher =
    let d =
      Tgd_net.Dispatcher.create
        { Tgd_net.Dispatcher.default_config with workers = warm_spec.workers }
    in
    let m = rung "ladder.dispatcher_us" (in_process (Tgd_net.Dispatcher.handle d)) in
    Tgd_net.Dispatcher.shutdown d;
    m
  in
  ([ direct; dispatcher; stdio; socket; fleet ], !sent, !failed)

(* ---- the serving workloads ----------------------------------------------- *)

type workload = Warm | Cold

(* fleet_cold sends a fixed quota of never-seen requests per measured
   second, and a phase ends when its quota is sent.  The server keeps
   state for every ontology it has seen, so its peak memory grows with
   the requests it served: a fixed quota, not a fixed time, keeps that
   memory comparable across commits.  Today the quota takes about 55% of
   the phase. *)
let cold_quota_per_s = 1500

(* Feed for one phase: request lines, how connections pick them, and the
   check each reply must pass. *)
type feed = {
  next : int -> int -> int option;
  line : int -> string;
  check : int -> string -> bool;
}

let warm_feed (w : Gen.warm) =
  let n = Array.length w.Gen.lines in
  { next = (fun c k -> Some (((c * (n / connections)) + k) mod n));
    line = (fun i -> w.Gen.lines.(i));
    check = (fun i resp -> String.equal resp w.Gen.expected.(i))
  }

(* Each request of a cold feed is sent once, by whichever connection
   asks first. *)
let cold_feed (reqs : Gen.cold array) =
  let cursor = Atomic.make 0 in
  { next =
      (fun _ _ ->
        let i = Atomic.fetch_and_add cursor 1 in
        if i < Array.length reqs then Some i else None);
    line = (fun i -> reqs.(i).Gen.line);
    check = (fun i resp -> Gen.check_cold reqs.(i) resp)
  }

let run ~workload ~tgdtool ~dir ~seed ~seconds ~trace =
  let spec = match workload with Warm -> warm_spec | Cold -> cold_spec in
  let golden = match workload with Warm -> None | Cold -> Some (Gen.load_cold_golden ()) in
  let warm = match workload with Warm -> Some (Gen.serve_warm ~seed) | Cold -> None in
  let cold_batch ~first n =
    Array.init n (fun k -> Gen.cold_request (Option.get golden) ~seed (first + k))
  in
  (* set-up: median of several starts; the last server stays up *)
  let starts = if trace then 1 else setup_starts in
  let setups = Floats.create () in
  let rec boot k =
    let s, dt = start ~tgdtool ~dir spec in
    Floats.push setups dt;
    if k < starts then begin
      stop s;
      boot (k + 1)
    end
    else s
  in
  let server = boot 1 in
  let phase_seconds = if trace then float_of_int seconds /. 3. else float_of_int seconds in
  let phase ?sample ~seconds (f : feed) =
    run_phase ?sample ~sock:server.sock ~seconds ~next:f.next ~line:f.line ~check:f.check ()
  in
  (* warm-up: the warm mix fills the caches; the cold stream sends a
     fixed number of never-seen requests *)
  let feed_for_phases =
    match warm with
    | Some w ->
      ignore (phase ~seconds:(min 2. (float_of_int seconds /. 4.)) (warm_feed w));
      fun () -> warm_feed w
    | None ->
      let warmup_n = cold_quota_per_s * 2 in
      ignore (phase ~seconds:10. (cold_feed (cold_batch ~first:0 warmup_n)));
      let quota = int_of_float (float_of_int cold_quota_per_s *. phase_seconds) in
      let next_first = ref warmup_n in
      fun () ->
        let first = !next_first in
        next_first := first + quota;
        cold_feed (cold_batch ~first quota)
  in
  let c0 = counters server in
  let sample () = List.fold_left (fun acc p -> acc +. cpu_s p) 0. c0.pids in
  let measured ~traced =
    let f = feed_for_phases () in
    Trace.enabled := traced;
    let p = phase ~sample ~seconds:phase_seconds f in
    Trace.enabled := false;
    p
  in
  let p = measured ~traced:false in
  let c1 = counters server in
  let traced = if trace then Some (measured ~traced:true, counters server) else None in
  let rss = rss_mb c1.pids in
  stop server;
  let lat = latencies p.starts p.stops in
  let ok_ops = Array.length lat - p.failed in
  let end_to_end =
    let pct name q =
      let v, n, windows = windowed_ms ~t0:p.t0 ~t1:p.t1 p.starts p.stops q in
      metric name "ms" v ~samples:n ~windows
    in
    let rate, rates = ops_per_s ~t0:p.t0 ~t1:p.t1 p.starts p.stops in
    let cpu, cpus = cpu_per_op p ~cpu_end:c1.cpu_s ~ok_ops in
    [ metric "setup_s" "s" (median (Floats.to_array setups)) ~samples:setups.Floats.n;
      metric "ops_per_s" "1/s" rate ~windows:rates;
      pct "p50_ms" 50.;
      pct "p90_ms" 90.;
      pct "p99_ms" 99.;
      metric "rss_peak_mb" "MB" rss;
      metric "cpu_ms_per_op" "ms" (ms cpu) ~windows:(Array.map ms cpus);
      metric "failed_frac" "frac" (fratio p.failed (max 1 p.sent))
    ]
  in
  let sent = ref p.sent and failed = ref p.failed in
  let per_layer =
    match traced with
    | None -> []
    | Some (tp, c2) ->
      sent := !sent + tp.sent;
      failed := !failed + tp.failed;
      let requests = max 1 (p.sent + tp.sent) and served = max 1 (c2.served - c0.served) in
      (* replay the workload's own requests through the layers in process *)
      let lines, check =
        match warm with
        | Some w ->
          ( Array.sub w.Gen.lines 0 512,
            fun i resp -> String.equal resp w.Gen.expected.(i) )
        | None ->
          let reqs = cold_batch ~first:0 256 in
          (Array.map (fun r -> r.Gen.line) reqs, fun i resp -> Gen.check_cold reqs.(i) resp)
      in
      Trace.enabled := true;
      let r = replay lines ~check in
      Trace.enabled := false;
      let rungs, l_sent, l_failed = ladder ~tgdtool ~dir ~seed in
      sent := !sent + r.r_sent + l_sent;
      failed := !failed + r.r_failed + l_failed;
      let untraced = phase_rate p and traced_rate = phase_rate tp in
      replay_metrics () @ rungs
      @ [ metric "cache.hit_rate" "frac"
            (fratio (c2.hits - c0.hits) (c2.hits - c0.hits + c2.misses - c0.misses));
          metric "cache.evictions_per_req" "count" (fratio (c2.evictions - c0.evictions) requests);
          metric "cache.approx_mb" "MB" (float_of_int c2.cache_bytes /. 1048576.);
          metric "dispatcher.shed_frac" "frac" (fratio (c2.shed - c0.shed) requests);
          metric "router.failovers" "count" (float_of_int (c2.failovers - c0.failovers));
          metric "transport.session_errors" "count"
            (float_of_int (c2.session_errors - c0.session_errors));
          metric "pool.chunks" "count" (fratio (c2.chunks - c0.chunks) served);
          metric "pool.stolen_frac" "frac" (fratio (c2.stolen - c0.stolen) (c2.chunks - c0.chunks));
          metric "pool.merge_s" "s"
            (ratio (c2.pool_merge_s -. c0.pool_merge_s) (float_of_int served));
          metric "entailment.duplicate_frac" "frac" 0.;
          metric "candidates.enumerated" "count" 0.;
          metric "candidates.prefiltered_frac" "frac" 0.;
          metric "client.cpu_frac" "frac"
            (ratio p.client_cpu_s (s_of_ns (p.t1 - p.t0) *. float_of_int connections));
          metric "trace.overhead_frac" "frac" (ratio (untraced -. traced_rate) untraced)
        ]
      @ engine_metrics ~ops:r.r_sent r.engine ~probes:[||]
      @ gc_metrics ~ops:r.r_sent ~minor_words:r.minor_words ~major_collections:r.major_collections
  in
  (end_to_end @ per_layer, !sent, !failed, [])
