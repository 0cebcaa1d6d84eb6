(** Multi-process shard fleet: process-isolated serving with supervision,
    failover, and graceful degradation.

    {!start} forks [shards] worker processes, each running the ordinary
    socket serve loop ({!Transport.serve}) on its own Unix socket with
    its own domain pool and warm caches.  The parent's front-end router
    is a {!Transport.listen} lifecycle whose handler proxies NDJSON
    request lines to shards by rendezvous hash of the ontology digest —
    the same rule set always lands on the same shard, preserving
    per-shard cache affinity.  One shard OOMing, crashing, or wedging
    takes out only its own process.  The router's connection limit, idle
    timeout and drain grace are the shard config's, as are its failover
    [retries] and [backoff_base_s] (from the server config).

    {b Supervision.}  Shards heartbeat the parent over a pipe; the
    monitor thread reaps exits ([waitpid WNOHANG]), treats heartbeat
    silence past the {!Tgd_engine.Supervisor} wedge window as a wedge
    (SIGKILL), and respawns dead shards with capped exponential backoff.
    An exhausted restart budget trips the breaker.  The
    {!Tgd_engine.Chaos.kill_shot} family (site ["fleet.shard"]) is
    consulted every tick, so drills can [kill -9] shards under load on a
    deterministic schedule.

    {b Failover.}  A shard dying mid-request makes the router retry the
    request line on the next live shard in rendezvous order, with the
    exponential-backoff retry ladder; responses are forwarded
    byte-for-byte, so a failed-over response is identical to the one a
    healthy fleet (or a single server) would have produced.  Only a
    fleet with nothing live left after [retries] attempts answers a
    typed [unavailable] error.

    {b Degraded mode.}  With fewer than [quorum] shards live (or the
    breaker tripped) the fleet keeps serving but sheds requests whose
    static cost prediction is [Expensive] at the router edge, with a
    typed [overloaded] error carrying ["degraded": true].

    An [{"op": "fleet_status"}] request is answered by the router itself
    with {!status_json}; everything else proxies.

    {b Forking.}  Shards start by [Unix.fork], which needs a single
    running domain: the router never spawns one.  A fresh shard closes
    every descriptor it inherited — as listed by [/proc/self/fd] — except
    0–2 and its heartbeat write end, before it serves. *)

type config = {
  shards : int;                  (** worker processes (>= 1) *)
  shard : Transport.config;      (** per-shard serving config *)
  cache_bytes : int option;      (** per-shard warm-cache ceiling *)
  quorum : int option;           (** live shards below this = degraded;
                                     default majority ([shards/2 + 1]) *)
  beat_s : float;                (** shard heartbeat period *)
  policy : Tgd_engine.Supervisor.policy;
      (** respawn backoff, wedge window, monitor tick *)
  shard_dir : string option;     (** directory for shard sockets; default
                                     derives from the fleet address *)
}

val default_config : config
(** 4 shards of {!Transport.default_config}, majority quorum, 250 ms
    heartbeats, 1000-restart budget with 50 ms–2 s backoff and a 3 s
    wedge window. *)

(** {2 Placement} *)

val shard_rank : shards:int -> string -> int list
(** Rendezvous (highest-random-weight) ranking of all shard indices for
    a digest, best first — a permutation of [0..shards-1] that is a pure
    function of [(shards, digest)].  Head is the home shard; the tail is
    the failover order.  Removing one shard from service only remaps the
    digests it owned. *)

val shard_of_digest : shards:int -> string -> int
(** [List.hd (shard_rank ~shards digest)]. *)

val request_digest : Tgd_serve.Json.t -> string
(** The routing key: a digest of the request's ontology ([tgds]) text,
    folding in every sub-request of a [batch].  Requests over the same
    rule set share a digest, hence a shard, hence its warm caches. *)

(** {2 Lifecycle} *)

type t

val start : config -> Transport.addr -> t
(** Shut down any warm in-process domain pools (forking requires a
    single running domain), bind the front-end address, fork all shards,
    and serve in background threads.
    @raise Unix.Unix_error if the address cannot be bound.
    @raise Invalid_argument if [shards < 1]. *)

val stop : t -> int
(** Graceful shutdown: in-flight requests finish writing, shards get
    SIGTERM and drain their own sessions, then block until every shard
    is reaped and the sockets are unlinked.  Returns the exit code (0). *)

val serve : ?signals:bool -> config -> Transport.addr -> int
(** [start], optionally (default) install SIGINT/SIGTERM drain handlers,
    then block until drained as {!stop} does.  The blocking entry point behind
    [tgdtool serve --shards N]. *)

(** {2 Introspection and drills} *)

val status_json : t -> Tgd_serve.Json.t
(** The [fleet_status] result: shard liveness and pids, quorum,
    degraded/breaker flags, respawn / death / wedge / chaos-kill counts,
    and router counters (requests, failovers, shed, unavailable,
    session-end classes). *)

val degraded : t -> bool
(** Fewer than quorum shards live, or the breaker has tripped. *)

val respawn_count : t -> int
(** Shards respawned after a death or wedge (initial spawns excluded). *)

val kill_shard : t -> int -> bool
(** SIGKILL shard [i] (for failover drills); [false] if the index is out
    of range or the shard is already down.  The monitor observes the
    death and respawns on the usual schedule. *)
