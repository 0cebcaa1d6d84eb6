(** Worker-supervision state machine.

    Pure bookkeeping, no domains: {!Pool} owns the worker domains and a
    monitor loop, and drives this module under its own lock — [note_*] on
    events (a worker claimed work, went idle, died), {!decide} on every
    monitor tick.  Keeping the policy side-effect-free makes the whole
    restart/backoff/breaker ladder testable with synthetic clocks, no
    domains or sleeps involved.

    Per slot (one slot per worker index) the machine tracks a state
    ([Idle] / [Busy since] / [Dead until]), a {e generation} — bumped on
    every respawn so a stale worker that wakes up after being replaced can
    recognise itself and exit without touching the slot — and a respawn
    count driving capped exponential backoff.  Globally it counts deaths,
    respawns, and wedge abandonments; once total respawns reach
    [max_restarts], {!decide} emits [Trip_breaker] instead of another
    [Respawn], after which the pool runs in degraded sequential mode.

    Wedge detection is opt-in ([wedge_timeout_s]): a slot [Busy] longer
    than the timeout yields [Abandon] — the pool fails that worker's
    in-flight chunk with [Chaos.Injected "pool.wedged#<slot>"] (so the
    fault surfaces through the usual typed [Truncated (Fault _)] path) and
    reports {!note_wedged}, which schedules a replacement like any other
    death.  The timeout must be much larger than an honest chunk. *)

type policy = {
  max_restarts : int;  (** total respawns before the breaker trips *)
  backoff_base_s : float;  (** first respawn delay for a slot *)
  backoff_cap_s : float;  (** backoff doubles per respawn up to this cap *)
  wedge_timeout_s : float option;  (** busy longer than this = wedged *)
  tick_s : float;  (** monitor polling interval *)
}

val default_policy : policy
(** [max_restarts = 16]; backoff 1ms doubling, capped at 100ms; wedge
    detection off; 2ms ticks. *)

type t

val create : policy -> slots:int -> t
(** All slots start alive, idle, generation 0.  Not thread-safe on its
    own — the caller serializes access (the pool uses its queue lock). *)

val policy : t -> policy

type action =
  | Respawn of int  (** slot's backoff expired: spawn a replacement *)
  | Abandon of int  (** slot is wedged: fail its chunk, then report
                        {!note_wedged} *)
  | Trip_breaker  (** restart budget exhausted: call {!trip} and fall
                      back to sequential execution *)

val decide : t -> now:float -> action list
(** What the monitor should do now.  Pure — performing an action must be
    reported back via {!note_spawned} / {!note_wedged} / {!trip}.
    [Trip_breaker] appears at most once and suppresses [Respawn]s; after
    the breaker has tripped only [Abandon]s are emitted (wedged chunks
    must still fail so joins never hang). *)

val note_spawned : t -> int -> int
(** A replacement was spawned for the slot: mark it idle, count the
    restart, and return the slot's new generation. *)

val note_busy : t -> int -> now:float -> unit
(** The slot's worker claimed a chunk (heartbeat). *)

val note_idle : t -> int -> unit
(** The slot's worker finished its chunk and is back on the queue. *)

val note_death : t -> int -> now:float -> unit
(** The slot's worker died; schedules a respawn after the slot's current
    backoff delay. *)

val note_wedged : t -> int -> now:float -> unit
(** Like {!note_death}, but also counted as a wedge abandonment. *)

val trip : t -> unit
val tripped : t -> bool

val generation : t -> int -> int
(** Current generation of the slot; a worker holding an older generation
    is stale and must exit without touching the slot. *)

type health = {
  alive : int;  (** slots with a live worker *)
  deaths : int;  (** worker deaths observed (incl. wedges) *)
  restarts : int;  (** replacements spawned *)
  wedged : int;  (** in-flight chunks abandoned as wedged *)
  breaker_tripped : bool;
}

val health : t -> health
