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

type outcome =
  | Terminated  (** no active trigger remains: the result is a model *)
  | Truncated of Budget.exhaustion
      (** a limit tripped; the result is a sound prefix of the chase, and
          the reason says which limit.  [Rounds]/[Facts] truncations are
          reproducible; deadline/memory/fuel/cancellation/fault ones stop
          at a wall-clock accident but still commit a prefix of the same
          deterministic firing sequence (independent of [jobs]). *)

type result = {
  instance : Instance.t;
  outcome : outcome;
  rounds : int;    (** rounds actually performed *)
  fired : int;     (** triggers fired *)
  stats : Stats.t; (** engine counters for this run (also in Stats.global) *)
}

val restricted :
  ?naive:bool ->
  ?budget:budget -> ?on_fire:(Trigger.t -> Fact.t list -> unit) ->
  ?jobs:int -> ?chunk:int -> ?memo:bool -> ?analyze:bool ->
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
    by the pool); the outcome is independent of it.  [memo:true] consults
    a process-wide
    result cache keyed on (kind, implementation, budget, canonical theory,
    input facts) — only when no [on_fire] observer is passed, since a
    cached replay could not invoke it.

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
  ?jobs:int -> ?chunk:int -> ?memo:bool -> ?analyze:bool ->
  Tgd.t list -> Instance.t -> result
(** Oblivious (naive) chase: every trigger fires exactly once.  [jobs],
    [chunk], [memo] and [analyze] as in {!restricted}. *)

val clear_memo : unit -> unit
(** Drop every entry of the [~memo:true] result cache. *)

val set_memo_limit : bytes:int option -> unit
(** Install (or remove) a byte ceiling with LRU eviction on the
    [~memo:true] result cache ({!Tgd_engine.Memo.set_limit}); changing the
    limit clears the cache. *)

val memo_counters : unit -> Tgd_engine.Memo.counters
(** Hit/miss/entry/byte/eviction counters of the result cache. *)

val certificate_memos : bool Tgd_engine.Memo.t list
(** The per-ontology termination-certificate caches behind promotion
    (the WA/JA front and the full lattice), keyed by
    {!Tgd_engine.Memo.sigma_key}.  Exposed so a server can put them under
    its cache ceiling. *)

type checkpoint = {
  chk_instance : Instance.t;  (** committed saturation prefix *)
  chk_rounds : int;           (** rounds completed across all slices *)
  chk_fired : int;
}
(** On-disk chase state, persisted through {!Tgd_engine.Snapshot}. *)

val snapshot_kind : string
(** The {!Tgd_engine.Snapshot} kind tag for legacy full-state chase
    checkpoints (["chase-state"]).  Kept as the [Marshal] baseline the
    benches compare the delta chain against. *)

val snapshot_store : dir:string -> name:string -> Tgd_engine.Snapshot.store
(** A full-state store of {!snapshot_kind} under [dir] (legacy path). *)

val log_kind : string
(** The {!Tgd_engine.Delta_log} kind tag for incremental chase checkpoints
    (["chase-delta"]). *)

val log_config :
  ?keep:int ->
  ?fsync:bool ->
  dir:string ->
  name:string ->
  unit ->
  Delta_log.config
(** An incremental checkpoint log of {!log_kind} under [dir]: a full base
    snapshot plus per-barrier delta records, compacted generationally
    ([keep] retained, default 2).  [fsync] syncs every barrier (default
    off — kill -9 does not need it). *)

type resumed = {
  rz_checkpoint : checkpoint;  (** base + verified deltas, replayed *)
  rz_chain : Delta_log.chain;  (** where appends continue *)
  rz_warnings : string list;
      (** non-empty = degraded resume: records were lost to mid-chain
          corruption or a generation fallback (callers should surface
          these, then continue) *)
}

val load_log :
  Delta_log.config -> (resumed option, string list) Stdlib.result
(** Load and replay an incremental checkpoint chain.  [Ok None] — nothing
    on disk, start fresh.  [Ok (Some r)] — resume from [r]; a torn final
    record (the expected kill -9 signature) is dropped silently, while
    mid-chain corruption surfaces in [rz_warnings] with the resume taken
    from the last verifiable prefix.  [Error] — no generation yields a
    verifiable base: surface the diagnoses, don't silently restart. *)

val restricted_resumable :
  ?budget:budget ->
  ?jobs:int ->
  ?chunk:int ->
  ?every:int ->
  ?compact_every:int ->
  log:Delta_log.config ->
  ?resume:resumed ->
  Tgd.t list -> Instance.t -> result
(** {!restricted} with incremental durable checkpoints: one engine run
    whose round-barrier commits append delta records to [log] — one record
    every [every] committed rounds (default 8; [every = 1] is affordable,
    records cost only that span's new facts), folded into a fresh base
    generation every [compact_every] records (default 64).  The log is
    removed when the chase terminates; on truncation the chain is synced
    to the exact returned state, so a killed or budget-tripped run resumes
    from [load_log] via [?resume] instead of refiring from the input.
    The budget governs the whole run across resumes ([rounds] counts
    cumulatively); promotion ([analyze]) and [memo] are disabled.  A
    resumed run reaches the same saturation up to null renaming (the
    engine's delta stratification restarts at the checkpoint). *)

val is_model : result -> bool
(** [outcome = Terminated]. *)

val deterministic_result : result -> bool
(** Whether the result is a function of the deterministic caps alone —
    [Terminated] or [Truncated (Rounds | Facts)].  Deadline-, memory-,
    fuel-, cancellation-, and fault-truncated runs stopped at a wall-clock
    accident and are not reproducible; caches keyed on {!Budget.key} (which
    covers only the caps) must store nothing else. *)

val pp_result : result Fmt.t
