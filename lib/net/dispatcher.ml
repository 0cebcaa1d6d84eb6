(* Request dispatcher: N connections, M worker domains.

   Connection sessions (systhreads, {!Transport}) call {!handle}
   concurrently; each admitted request is executed as a one-item batch on
   the shared {!Tgd_engine.Pool}, whose FIFO queue is the only waiting
   room.  A session submits one request and waits for its response
   before it reads the next line, so a connection never has two requests
   queued and cannot starve the others.  A fault surfacing at the batch
   join ([pool.chunk] chaos site) is retried on
   {!Tgd_serve.Server.retrying}, the ladder [serve.request] uses, and
   only after [retries] attempts becomes a typed [fault] response.
   [Server.handle] itself is total, so the only exceptions that can
   reach the join are injected ones.

   Admission runs before any engine work ({!Admission}): past the queue
   limit — or past [expensive_at] for requests whose static cost
   prediction says [Expensive] — the dispatcher answers a typed
   [overloaded] error carrying the predicted cost and observed depth, so
   clients can tell shed-because-full from shed-because-you're-pricey.

   Cache counters are deliberately NOT part of normal responses: equal
   requests must produce byte-identical responses on every connection
   (the qcheck property relies on it), and hit counters are global
   mutable state.  They are surfaced through the [stats] op, or per
   request when the client opts in with ["cache_stats": true]. *)

module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Pool = Tgd_engine.Pool

type config = {
  server : Server.config;
  workers : int;
  admission : Admission.config;
}

let default_config =
  let server = Server.default_config in
  { server;
    workers = 4;
    admission = Admission.default_config ~queue_limit:server.Server.queue_limit
  }

type t = {
  config : config;
  pool : Pool.t;
  depth : int Atomic.t;
  served : int Atomic.t;
  shed : int Atomic.t;
  mutable extra_stats : (string * (unit -> Json.t)) list;
}

let create config =
  { config;
    pool = Pool.create ~jobs:(max 1 config.workers) ();
    depth = Atomic.make 0;
    served = Atomic.make 0;
    shed = Atomic.make 0;
    extra_stats = []
  }

let shutdown t = Pool.shutdown t.pool

let add_stats t key provider =
  t.extra_stats <- t.extra_stats @ [ (key, provider) ]

let stats_json t =
  let c = Pool.counters t.pool in
  Json.Obj
    ([ ("requests_served", Json.Int (Atomic.get t.served));
      ("requests_shed", Json.Int (Atomic.get t.shed));
      ("queue_depth", Json.Int (Atomic.get t.depth));
      ("workers", Json.Int (Pool.jobs t.pool));
      ( "pool",
        Json.Obj
          [ ("alive", Json.Int (Pool.jobs t.pool));
            ("batches", Json.Int c.Pool.batches);
            ("chunks", Json.Int c.Pool.chunks);
            ("chunks_stolen", Json.Int c.Pool.chunks_stolen);
            ("chunk_items", Json.Int c.Pool.chunk_items);
            ("merge_time_s", Json.Float c.Pool.merge_time_s)
          ] );
      ("cache", Warm.counters_json (Warm.counters ()))
    ]
    @ List.map (fun (key, provider) -> (key, provider ())) t.extra_stats)

let overloaded t ~cost ~depth req =
  Server.error (Server.request_id req) "overloaded"
    (Printf.sprintf "queue depth %d at limit %d" depth
       t.config.admission.Admission.queue_limit)
    ~extra:
      [ ("predicted_cost", Json.String (Tgd_analysis.Strategy.cost_name cost));
        ("queue_depth", Json.Int depth)
      ]

(* A [batch] request carries sub-requests that run as ONE chunked pool
   batch — the same cost-sized submission path the rewrite screener uses.
   The chunk packs sub-requests to {!Tgd_analysis.Strategy.chunk_weight_target}
   using the admission cost model ([cost_weight] of each sub-request's
   prediction), floored at ~4 chunks per worker so stealing has slack.
   Responses keep submission order (the pool preserves input order), so a
   batch of [k] requests is byte-identical to [k] sequential requests. *)
let batch_chunk t reqs =
  let module Strategy = Tgd_analysis.Strategy in
  let n = List.length reqs in
  if n = 0 then 1
  else begin
    let weight =
      List.fold_left
        (fun acc r ->
          acc + Strategy.cost_weight (Admission.predict t.config.admission r))
        0 reqs
    in
    let mean_weight = max 1 (weight / n) in
    let by_dispatch = max 1 (Strategy.chunk_weight_target / mean_weight) in
    let by_balance = max 1 (n / (4 * max 1 (Pool.jobs t.pool))) in
    max 1 (min by_dispatch by_balance)
  end

(* The one route onto the pool: a single request is a batch of one.
   [Server.handle] is total, so an exception at the join is pool-level
   fault injection; it retries on the server's ladder before every
   request of the batch concedes a [fault]. *)
let run_batch t ~chunk reqs =
  let cfg = t.config.server in
  let answer_all code msg =
    List.map (fun req -> Server.error (Server.request_id req) code msg) reqs
  in
  match
    Server.retrying cfg ~fault:(answer_all "fault") (fun () ->
        Pool.parallel_map t.pool ~chunk (Server.handle cfg) (List.to_seq reqs))
  with
  | resps -> resps
  | exception exn -> answer_all "internal" (Printexc.to_string exn)

let batch_response t req =
  match Json.member "requests" req with
  | Some (Json.List subs) ->
    let resps = run_batch t ~chunk:(batch_chunk t subs) subs in
    ignore (Atomic.fetch_and_add t.served (List.length subs));
    Server.ok (Server.request_id req)
      (Json.Obj [ ("responses", Json.List resps) ])
  | _ ->
    Server.error (Server.request_id req) "bad_request"
      "\"batch\" needs a \"requests\" array"

let with_cache_stats req resp =
  let wants =
    match Json.member "cache_stats" req with Some (Json.Bool b) -> b | _ -> false
  in
  if not wants then resp
  else
    match resp with
    | Json.Obj fields ->
      Json.Obj (fields @ [ ("cache", Warm.counters_json (Warm.counters ())) ])
    | other -> other

let handle t req =
  match Json.member "op" req with
  | Some (Json.String "stats") ->
    Server.ok (Server.request_id req) (stats_json t)
  | op -> (
    let depth = Atomic.fetch_and_add t.depth 1 in
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add t.depth (-1)))
      (fun () ->
        match Admission.decide t.config.admission ~queue_depth:depth req with
        | Admission.Shed cost ->
          ignore (Atomic.fetch_and_add t.shed 1);
          overloaded t ~cost ~depth req
        | Admission.Admit _ -> (
          match op with
          | Some (Json.String "batch") -> batch_response t req
          | _ ->
            let resp = List.hd (run_batch t ~chunk:1 [ req ]) in
            ignore (Atomic.fetch_and_add t.served 1);
            with_cache_stats req resp)))
