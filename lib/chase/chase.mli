(** The chase procedure.

    Both the {e restricted} chase (fire only active triggers) and the
    {e oblivious} chase (fire every trigger once) are provided, under an
    explicit budget.  Soundness note used by {!Entailment}: every finite
    prefix of the (restricted or oblivious) chase of [D] with [Σ] maps
    homomorphically, fixing [D]'s constants, into every model [M ⊨ Σ] with
    [facts(D) ⊆ facts(M)] — so facts derived within the budget are certain,
    while exhaustion of the budget leaves satisfaction open.

    By default both chases run on the indexed semi-naive engine
    ({!Tgd_engine.Seminaive}); [~naive:true] selects the original
    snapshot-rescan loop, kept as a reference implementation for
    differential testing and benchmarking. *)

open Tgd_syntax
open Tgd_instance
open Tgd_engine

type budget = Budget.t
(** The unified governance record ({!Tgd_engine.Budget}): round/fact/fuel
    caps, optional wall-clock deadline and memory ceiling, cancellation
    token.  Build with [Budget.make]/[Budget.limits]. *)

val default_budget : budget
(** {!Tgd_engine.Budget.default}: 64 rounds, 20_000 facts, nothing else. *)

type outcome = Seminaive.outcome =
  | Terminated  (** no active trigger remains: the result is a model *)
  | Truncated of Budget.exhaustion
      (** a limit tripped; the result is a sound prefix of the chase, and
          the reason says which limit.  [Rounds]/[Facts] truncations are
          reproducible; deadline/memory/fuel/cancellation/fault ones stop
          at a wall-clock accident but still commit a prefix of the same
          deterministic firing sequence (independent of [jobs]). *)

type result = Seminaive.result = {
  instance : Instance.t;
  outcome : outcome;
  rounds : int;    (** rounds actually performed *)
  fired : int;     (** triggers fired *)
  stats : Stats.t; (** engine counters for this run (also in Stats.global) *)
}
(** The engine's own result, shared by the reference loop. *)

val restricted :
  ?naive:bool ->
  ?budget:budget -> ?on_fire:(Trigger.t -> Fact.t list -> unit) ->
  ?jobs:int -> ?chunk:int -> ?analyze:bool ->
  Tgd.t list -> Instance.t -> result
(** Breadth-first restricted chase.  When [outcome = Terminated] the
    instance is a universal model of [(facts(D), Σ)].  [on_fire] observes
    every fired trigger together with the grounded head facts (new or
    not) — the hook behind {!Provenance}.

    [jobs > 1] runs each round's match phase on a warm domain pool
    ({!Tgd_engine.Pool.with_warm} — live across rounds and across calls);
    results are merged deterministically, so the outcome is identical to
    [jobs = 1], which bypasses the pool entirely (ignored on the naive
    path).  [chunk] fixes the match tasks per pool claim (default: sized
    by the pool); the outcome is independent of it.

    [analyze] (default [true]) promotes a [Truncated Rounds] outcome on a
    rule set carrying a termination certificate
    ({!Tgd_analysis.Termination.certificate}) by re-running with the round
    cap lifted: the certificate guarantees the rerun finishes (or trips a
    {e different} limit, which is then reported honestly).  Fact caps,
    deadlines, fuel and cancellation are never overridden.  Pass
    [~analyze:false] to keep the raw budgeted behavior. *)

val oblivious :
  ?naive:bool ->
  ?budget:budget -> ?on_fire:(Trigger.t -> Fact.t list -> unit) ->
  ?jobs:int -> ?chunk:int -> ?analyze:bool ->
  Tgd.t list -> Instance.t -> result
(** Oblivious (naive) chase: every trigger fires exactly once.  [jobs],
    [chunk] and [analyze] as in {!restricted}. *)

val certificate_memo : bool Tgd_engine.Memo.t
(** The per-ontology termination-lattice verdicts behind the restricted
    chase's promotion, keyed by {!Tgd_engine.Memo.sigma_key}.  Exposed so
    a server can put it under its cache ceiling.  The oblivious chase's
    WA/JA certificate is computed afresh when its round cap trips. *)

val clear_memo : unit -> unit
(** Drop every entry of the {!certificate_memo}.  Chase results
    themselves are never cached here; {!Entailment} keeps the chases it
    reuses. *)

type checkpoint = {
  chk_instance : Instance.t;  (** committed saturation prefix *)
  chk_rounds : int;           (** rounds completed across all slices *)
  chk_fired : int;
}
(** On-disk chase state, journaled through a delta chain of
    {!log_config}: a base encoding of the whole state plus one record per
    checkpoint barrier. *)

val log_config :
  ?keep:int ->
  ?fsync:bool ->
  dir:string ->
  name:string ->
  unit ->
  Delta_log.config
(** An incremental checkpoint log of kind ["chase-delta"] under [dir]
    ([keep] generations retained after compaction, default 2).  [fsync]
    syncs every barrier (default off — kill -9 does not need it). *)

val decode_chain : Delta_log.chain -> checkpoint
(** Replay a loaded chain (base + verified deltas) to its state: the
    [decode] to pass {!Delta_log.load_journal}.
    @raise Wire.Corrupt on bytes that do not decode. *)

val restricted_resumable :
  ?budget:budget ->
  ?jobs:int ->
  ?chunk:int ->
  ?every:int ->
  journal:checkpoint Delta_log.journal ->
  Tgd.t list -> Instance.t -> result
(** {!restricted} with incremental durable checkpoints: one engine run
    whose round barriers are journaled — one record every [every]
    committed rounds (default 8; [every = 1] is affordable, records cost
    only that span's new facts), compacted by {!Delta_log.record}.  The
    run resumes from the journal's loaded state when there is one, and
    otherwise starts a fresh chain from the input.  The chain is removed
    when the chase terminates; on truncation, a faulted round included, it
    is synced to the exact returned state, so a killed or budget-tripped
    run resumes from it instead of refiring from the input.  The budget
    governs the whole run across resumes ([rounds] and [fired] count
    cumulatively); promotion ([analyze]) is disabled.  A resumed run
    reaches the same saturation up to null renaming (the engine's delta
    stratification restarts at the checkpoint). *)

val is_model : result -> bool
(** [outcome = Terminated]. *)

val deterministic_result : result -> bool
(** Whether the result is a function of the deterministic caps alone —
    [Terminated] or [Truncated (Rounds | Facts)].  Deadline-, memory-,
    fuel-, cancellation-, and fault-truncated runs stopped at a wall-clock
    accident and are not reproducible; caches keyed on {!Budget.key} (which
    covers only the caps), such as {!Entailment}'s, must store nothing
    else. *)

val pp_result : result Fmt.t
