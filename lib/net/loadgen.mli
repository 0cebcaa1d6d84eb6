(** Closed-loop load generator for the socket server.

    [run addr ~connections ~requests workload] opens [connections]
    concurrent client connections, each issuing [requests] requests
    back-to-back (send, block for the response, record latency), and
    aggregates the outcome.  Responses are validated for protocol shape;
    violations count as [malformed] while well-formed error responses
    (shedding, faults) count as [errors].  Backs [tgdtool loadgen] and
    the E16 serving benchmark.

    With [~fault_tolerant:true] a transport failure (reset, refused,
    EOF instead of a response) makes the client reconnect and resend the
    request it was waiting on, counted under [reconnects] instead of
    failing the run — the client half of the fleet's shard-kill drill,
    where every request must complete even as shards die.  Reconnects
    stay distinct from [errors]: typed refusals are the server working,
    reconnects are the transport hiccuping. *)

type result = {
  connections : int;
  requests : int;  (** total sent across all connections *)
  ok : int;
  errors : int;    (** well-formed [ok = false] responses *)
  malformed : int; (** unparsable or protocol-shape-violating lines *)
  reconnects : int; (** transport failures recovered by reconnect+resend *)
  elapsed_s : float;
  latencies_s : float array;  (** one entry per answered request *)
}

val run :
  ?fault_tolerant:bool ->
  Transport.addr ->
  connections:int ->
  requests:int ->
  (int -> Tgd_serve.Json.t) ->
  result
(** The workload function maps a globally unique request index to a
    request object (it should carry an ["id"]).  [fault_tolerant]
    (default false) enables reconnect+resend on transport failures. *)

val connect : ?attempts:int -> Transport.addr -> Unix.file_descr
(** Client connect with brief retries (default 50 × 100 ms) to absorb
    the server's startup race in CI. *)

val percentile : float array -> float -> float
(** [percentile lat p] with linear interpolation; 0 on empty input. *)

val throughput : result -> float
(** Successful requests per second of wall clock. *)

val entail_workload : ?distinct:int -> unit -> int -> Tgd_serve.Json.t
(** Entailment requests over a fixed transitive-ish sigma with
    [distinct] different chain-length goals — repeats warm the cache. *)

val multi_workload :
  ?ontologies:int -> ?distinct:int -> unit -> int -> Tgd_serve.Json.t
(** Entailment over [ontologies] (default 8) renamed copies of the
    chain sigma, request [i] hitting ontology [i mod ontologies].
    Distinct rule sets spread across the fleet's digest-routed shards —
    the workload for drills and fleet benchmarks, where a single-sigma
    stream would (by design) hotspot one shard. *)

val workload_of_name :
  ?distinct:int ->
  ?tgds:string ->
  ?batch:int ->
  ?ontologies:int ->
  string ->
  (int -> Tgd_serve.Json.t) option
(** ["entail"], ["classify"], ["mixed"], ["rewrite"], ["batch"],
    ["multi"]. *)

val result_json : result -> Tgd_serve.Json.t
(** Summary object with req/s and p50/p99 millisecond latencies. *)
