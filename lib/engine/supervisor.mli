(** Shard-supervision state machine.

    Pure bookkeeping, no processes: [Tgd_net.Fleet] forks the shard
    processes, watches them through heartbeat pipes and [waitpid], and
    drives this module from its monitor thread — [note_*] on events (a
    shard was spawned, beat, died, was killed as wedged), {!decide} on
    every monitor tick.  Keeping the policy side-effect-free makes the
    whole restart/backoff/breaker ladder testable with synthetic clocks,
    no processes or sleeps involved.

    Per slot (one slot per shard index) the machine tracks a state
    ([Idle] / [Busy since] / [Dead until]) and a respawn count driving
    capped exponential backoff.  Globally it counts deaths, respawns, and
    wedge kills; once total respawns reach [max_restarts], {!decide}
    emits [Trip_breaker] instead of another [Respawn], after which the
    fleet runs degraded.

    Wedge detection is opt-in ([wedge_timeout_s]): a slot whose last
    heartbeat ({!note_busy}) is older than the timeout yields [Abandon] —
    the fleet SIGKILLs that shard and reports {!note_wedged}, which
    schedules a replacement like any other death.  The timeout must be
    much larger than the heartbeat period. *)

type policy = {
  max_restarts : int;  (** total respawns before the breaker trips *)
  backoff_base_s : float;  (** first respawn delay for a slot *)
  backoff_cap_s : float;  (** backoff doubles per respawn up to this cap *)
  wedge_timeout_s : float option;  (** silent longer than this = wedged *)
  tick_s : float;  (** monitor polling interval *)
}

type t

val create : policy -> slots:int -> t
(** All slots start alive and idle.  Not thread-safe on its own — the
    caller serializes access. *)

type action =
  | Respawn of int  (** slot's backoff expired: spawn a replacement *)
  | Abandon of int  (** slot is wedged: kill it, then report
                        {!note_wedged} *)
  | Trip_breaker  (** restart budget exhausted: call {!trip} and stop
                      respawning *)

val decide : t -> now:float -> action list
(** What the monitor should do now.  Pure — performing an action must be
    reported back via {!note_spawned} / {!note_wedged} / {!trip}.
    [Trip_breaker] appears at most once and suppresses [Respawn]s; after
    the breaker has tripped only [Abandon]s are emitted (wedged shards
    must still be killed). *)

val note_started : t -> int -> now:float -> unit
(** The slot's first process started: mark it busy as of [now].  A first
    start is not a restart — it neither counts against [max_restarts] nor
    lengthens the slot's backoff, so the slot's first respawn comes after
    [backoff_base_s]. *)

val note_spawned : t -> int -> unit
(** A replacement process was spawned for a dead slot: mark it idle and
    count the restart. *)

val note_busy : t -> int -> now:float -> unit
(** The slot's shard showed a sign of life (heartbeat). *)

val note_death : t -> int -> now:float -> unit
(** The slot's shard died; schedules a respawn after the slot's current
    backoff delay. *)

val note_wedged : t -> int -> now:float -> unit
(** Like {!note_death}, but also counted as a wedge abandonment. *)

val trip : t -> unit
val tripped : t -> bool

type health = {
  alive : int;  (** slots with a live shard *)
  deaths : int;  (** shard deaths observed (incl. wedges) *)
  restarts : int;  (** respawns reported via {!note_spawned} *)
  wedged : int;  (** shards killed as wedged *)
  breaker_tripped : bool;
}

val health : t -> health
