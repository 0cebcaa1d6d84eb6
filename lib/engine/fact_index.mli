(** Per-relation hash indexes over facts, keyed on
    (relation, position, constant), with insertion-round stamps.

    The index is the engine's single source of truth during saturation: a
    fact inserted in round [r] carries the stamp [r], and every lookup can
    be bounded by [?up_to] — so the same structure serves

    - snapshot semantics (round [r] matches only facts with stamp [< r]),
    - delta extraction (facts with stamp exactly [r-1]), and
    - activity checks against the live instance (no bound).

    Buckets preserve insertion order (oldest first), keeping the engine
    deterministic.  Lookups bump [probes] on the {!Stats.t} the index was
    created with.

    {b One layer, round barriers.}  Every fact lives in the same tables
    from the moment {!add} stamps it.  Inserts happen only in the
    engine's sequential fire phase, after a round's match tasks (which
    may run on pool workers) have all returned, so lookups never race a
    bucket resize.  {!add} also queues the fact; {!commit}, at the round
    barrier, hands the queue back in insertion order — flat and grouped
    per relation, the grouping the next round's pivot tasks consume
    directly. *)

open Tgd_syntax

type t

val create : ?stats:Stats.t -> unit -> t
(** Fresh empty index.  [stats] defaults to a private throw-away record. *)

val with_stats : t -> Stats.t -> t
(** A view of the same index whose lookups bump a different {!Stats.t} —
    used to give each parallel match task its own counter record while
    sharing the underlying tables (read-only during matching). *)

val add : t -> round:int -> Fact.t -> bool
(** Insert with stamp [round]; [false] when the fact is already present
    (the index is unchanged — first stamp wins). *)

val commit : t -> Fact.t list * (Relation.t, Fact.t list) Hashtbl.t
(** The round barrier: the facts added since the previous commit, as a
    flat list in insertion order and grouped per relation (each group in
    insertion order) — O(facts added).  The facts stay in the index; only
    the queue is emptied.  Rounds must be committed in non-decreasing
    order to keep bucket stamps monotone. *)

val mem : t -> Fact.t -> bool
val round_of : t -> Fact.t -> int option
val fact_count : t -> int
(** Number of facts in the index — O(1). *)

val lookup : t -> ?up_to:int -> Relation.t -> pos:int -> Constant.t -> Fact.t Seq.t
(** Facts [R(…,c,…)] with [c] at position [pos] and stamp [≤ up_to]
    (default: no bound).  Counts as one probe. *)

val all : t -> ?up_to:int -> Relation.t -> Fact.t Seq.t
(** Every fact of the relation with stamp [≤ up_to].  Counts as one probe. *)

val mem_up_to : t -> ?up_to:int -> Fact.t -> bool
(** O(1) membership for a ground fact with stamp [≤ up_to] (default: no
    bound) — the cheapest possible probe for a fully bound atom, used so
    activity checks never fall back to relation scans.  Counts as one
    probe. *)

val bucket_size : t -> Relation.t -> pos:int -> Constant.t -> int
(** Size of the (relation, position, constant) bucket — the selectivity
    estimate used to order joins.  Free: not counted as a probe. *)

val rel_size : t -> Relation.t -> int
(** Number of facts of the relation.  Not counted as a probe. *)
