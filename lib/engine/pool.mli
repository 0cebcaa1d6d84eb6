(** A domain pool for embarrassingly parallel screening loops.

    Built on plain [Domain] + [Mutex]/[Condition] (no dependencies beyond
    the OCaml 5 stdlib).  [create ~jobs] spawns [jobs] worker domains that
    block on a shared queue; each batch operation chops its input into
    chunks, and idle workers claim the next chunk dynamically — the load
    balancing that matters when per-item cost varies by orders of magnitude
    (e.g. candidate tgds whose chases terminate in one round vs exhaust the
    budget).

    {b Determinism.}  All batch operations preserve input order: the result
    of [parallel_filter_map] is the same list the sequential
    [Seq.filter_map] would produce, and [parallel_find_map] returns the
    first hit in input order regardless of scheduling (a later hit never
    suppresses an earlier item — see the domination argument in the
    implementation).

    {b Stats.}  {!Stats.global} is domain-local, so work done by a worker
    lands in that worker's accumulator.  Around every chunk the pool
    records the worker's delta and, when the batch joins, folds the sum
    into the {e submitting} domain's accumulator — callers that diff
    [Stats.global ()] around a parallel region therefore see exactly the
    counters the sequential run would have produced (modulo
    memo-hit/miss divergence when concurrent lookups race to compute the
    same entry).

    {b Exceptions.}  If a chunk raises, the batch still drains, and the
    first recorded exception is re-raised in the submitting domain.

    {b Cancellation.}  Every batch operation accepts a {!Budget.Cancel.t}
    token, polled between items (one atomic read).  Once the token trips —
    typically because a worker's budget check hit a deadline — every worker
    abandons the remainder of its chunk, the batch drains, and the call
    returns with only the items processed before the trip.  Skipped items
    are simply absent from a [parallel_filter_map]/[parallel_map] result
    (not necessarily a contiguous prefix: chunks interleave), so callers
    treat any result obtained under a tripped token as partial and decide
    their own commit granularity — the chase drops the interrupted round,
    the rewriting sweep drops the interrupted batch.

    {b Fault injection.}  Each chunk passes a {!Chaos.step} site
    ([pool.chunk]); an injected exception travels the normal failure path
    (batch drains, re-raised at the join).  Workers never die: every
    chunk exception is caught and recorded, so each chunk completes
    exactly once and the chaos suite can assert that no pool ever hangs
    or swallows a fault.

    Items are processed on worker domains: the closures passed in must not
    touch non-atomic shared mutable state (the engine's own shared
    structures — {!Memo} shards, {!Stats} — are already safe). *)

type t

val create : jobs:int -> unit -> t
(** Spawn exactly [jobs] worker domains ([jobs >= 1]).  The submitting
    domain does not execute chunks itself, so total parallelism is
    [jobs]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Let the workers finish what is queued, then stop and join them.
    Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown] (also on exceptions). *)

val warm : jobs:int -> unit -> t
(** A process-wide pool kept alive across calls, one per [jobs] count.
    Spawning a domain costs hundreds of microseconds, so re-creating a
    pool per engine phase used to dominate the work it parallelised;
    [warm] amortises the spawn over the whole process.  The returned pool
    is {e borrowed}: callers must not [shutdown] it.  All warm pools are
    shut down by an [at_exit] hook, or eagerly via {!warm_shutdown}. *)

val warm_shutdown : unit -> unit
(** Shut down every warm pool and empty the registry.  Safe to call
    repeatedly; subsequent {!warm} calls spawn fresh pools. *)

val with_warm : jobs:int -> (t option -> 'a) -> 'a
(** The standard engine entry point: run [f] with [Some pool] borrowed
    from the warm registry, or [None] when parallelism is unavailable —
    [jobs <= 1], or the calling domain is itself a pool worker (nested
    submission would deadlock on the shared queue).  Chaos runs borrow
    the same warm pool: an injected [pool.chunk] fault fails one batch
    and leaves the pool as it was. *)

type counters = {
  batches : int;        (** batch operations joined on this pool *)
  chunks : int;         (** chunks submitted across all batches *)
  chunks_stolen : int;  (** chunks claimed off their intended slot *)
  chunk_items : int;    (** total items carried by submitted chunks *)
  merge_time_s : float; (** seconds spent in batch-join merges *)
}

val counters : t -> counters
(** Cumulative chunk-level counters since pool creation (folded at each
    batch join, so a snapshot taken between batches is exact). *)

val parallel_filter_map :
  t -> ?chunk:int -> ?cancel:Budget.Cancel.t -> ('a -> 'b option) -> 'a Seq.t -> 'b list
(** Order-preserving parallel [Seq.filter_map .. |> List.of_seq].  The
    input sequence is forced on the submitting domain; [chunk] items are
    processed per queue claim (default: a size balancing queue traffic
    against load balance).  With [cancel], items are skipped once the
    token trips (see the cancellation note above). *)

val parallel_map :
  t -> ?chunk:int -> ?cancel:Budget.Cancel.t -> ('a -> 'b) -> 'a Seq.t -> 'b list
(** Order-preserving parallel [List.map] (shorter when cancelled). *)

val parallel_find_map :
  t -> ?chunk:int -> ?cancel:Budget.Cancel.t -> ('a -> 'b option) -> 'a Seq.t -> 'b option
(** First hit in input order, with early exit: once a hit at index [i] is
    known, items after [i] are skipped without calling [f].  A hit found
    before a [cancel] trip is still returned; [None] under a tripped token
    means the search was abandoned, not exhausted. *)
