(** Concurrent request dispatcher over the supervised worker pool.

    N connection sessions call {!handle} concurrently; admitted requests
    run as one-item batches on a shared {!Tgd_engine.Pool} of [workers]
    domains, inheriting the PR-5 supervision ladder (worker respawn,
    requeue, circuit breaker, typed faults).  {!Admission} sheds requests
    ahead of the pool with typed [overloaded] responses carrying the
    predicted cost class.

    A [batch] op ([{"op": "batch", "requests": [...]}]) runs its
    sub-requests as one chunked pool batch — the same cost-sized
    submission path the rewrite screener uses, with the chunk packed to
    {!Tgd_analysis.Strategy.chunk_weight_target} from each sub-request's
    predicted cost.  Responses preserve submission order, so a batch of
    [k] requests returns exactly the [k] responses sequential submission
    would.  Admission predicts a batch at its dearest member's cost.

    Admitted requests wait for a {!Fairq} slot before entering the pool:
    per-connection queues granted round-robin, so a connection
    pipelining requests back-to-back cannot starve the others.  Pass the
    session's connection id to {!handle} to get a dedicated queue;
    callers without one (in-process embedders, tests) share a default
    queue.

    A [stats] op reports served/shed counts, pool health, chunk counters
    (chunks submitted/stolen, items, barrier merge time), fair-queue
    state (per-connection queue depths), and warm-cache counters; normal
    responses stay byte-identical across connections unless the client
    opts in with ["cache_stats": true]. *)

type config = {
  server : Tgd_serve.Server.config;  (** per-request budgets and retries *)
  workers : int;                     (** worker domains in the pool *)
  admission : Admission.config;
}

val default_config : config
(** [Server.default_config], 4 workers, admission at the server's queue
    limit. *)

type t

val create : config -> t
(** Spawn the worker pool.  Pair with {!shutdown}. *)

val handle : ?conn:int -> t -> Tgd_serve.Json.t -> Tgd_serve.Json.t
(** One parsed request to its terminal response.  Total: never raises.
    Safe to call from any number of threads or domains concurrently.
    [conn] names the calling connection's fair queue (default [-1], a
    queue shared by all anonymous callers). *)

val add_stats : t -> string -> (unit -> Tgd_serve.Json.t) -> unit
(** Append a provider whose value is included under [key] in every
    [stats] result — how the transport surfaces session counters that
    the dispatcher cannot see.  Call before serving traffic. *)

val queue_depth : t -> int
(** Requests currently between admission and response. *)

val stats_json : t -> Tgd_serve.Json.t
(** The [stats] op's result object (also usable for logging). *)

val shutdown : t -> unit
(** Stop and join the worker pool.  Idempotent. *)
