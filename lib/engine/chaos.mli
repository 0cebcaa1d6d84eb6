(** Fault injection for robustness testing.

    When a configuration is installed, {!step} probabilistically injects
    delays, allocation spikes, and exceptions at the engine's instrumented
    sites — chase trigger firings ([chase.fire], [chase.naive]), pool
    chunks ([pool.chunk]), rewrite screening batches ([rewrite.batch]),
    and the serve loop ([serve.request]).  With
    no configuration installed (the default), {!step} is a single atomic
    read and injects nothing; production code never pays more than
    that.

    {b Determinism.}  Draws are a pure hash of (seed, site, shot number),
    where the shot number counts the steps of {e that site alone} — one
    site's schedule is independent of how often other sites step.
    {!install} resets all counters, so a single-domain run under a given
    config replays an identical fault schedule every time (the property
    the deterministic-replay tests assert).  With [jobs > 1] the per-site
    counter increments interleave nondeterministically across worker
    domains, so the {e set} of firing shots per site is deterministic but
    their attribution to work items is not — the suites assert
    {e typed-outcome} invariants there, never which exact item faulted.

    Injected exceptions carry the distinguished {!Injected} exception; the
    engine's run boundaries catch it and surface a typed
    [Truncated (Fault site)] outcome ({!Budget.outcome}) instead of letting
    it escape. *)

type config = {
  seed : int;
  delay_p : float;      (** probability of sleeping [delay_s] at a site *)
  delay_s : float;
  alloc_p : float;      (** probability of a transient allocation spike *)
  alloc_words : int;
  raise_p : float;      (** probability of raising {!Injected} *)
  kill_p : float;       (** probability per {!kill_shot} that a process-kill
                            fires (consulted by the shard-fleet monitor) *)
}

val default_config : config
(** All probabilities 0; [delay_s = 1e-3], [alloc_words = 65_536]. *)

exception Injected of string
(** The payload names the site and its site-local shot, e.g.
    ["chase.fire#42"]. *)

val install : config -> unit
(** Install [cfg] and reset every per-site shot counter, so schedules
    replay from shot 0. *)

val uninstall : unit -> unit
val active : unit -> bool

val with_config : config -> (unit -> 'a) -> 'a
(** [install], run, always [uninstall] (also on exceptions). *)

val step : site:string -> unit
(** Possibly inject at [site].  No-op when nothing is installed.
    @raise Injected when the raise draw fires. *)

val shot_count : site:string -> int
(** Steps taken at [site] since the last {!install} — how far that site's
    deterministic stream has advanced. *)

val kill_shot : site:string -> n:int -> int option
(** The process-kill fault family.  Steps [site]'s deterministic stream
    once and decides whether a kill fires this shot and, if so, which of
    [n] victims it picks ([Some v] with [0 <= v < n]).  The caller — the
    shard-fleet supervision loop, once per tick — owns the actual
    [kill -9]; chaos only supplies the deterministic schedule.  [None]
    always when no config is installed, [kill_p <= 0], or [n <= 0] (the
    stream does not advance in those cases either, so enabling kills does
    not perturb the other families' schedules). *)
