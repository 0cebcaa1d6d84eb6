(** Per-run fact store over interned ids, with insertion-round stamps.

    The index is the engine's single source of truth during saturation.
    Constants are interned into dense per-run ids ({!intern}, {!fresh}),
    and each relation gets one record ({!relation}) holding its facts as
    packed int tuples, [arity] ids per fact, numbered in insertion order.
    A relation record carries

    - an open-addressing table from int tuples to fact ids (membership and
      stamps, no boxed key per lookup),
    - int-keyed (position, constant id) buckets of fact ids, and
    - the round stamp of every fact.

    A fact inserted in round [r] carries the stamp [r], and every lookup is
    bounded by [up_to] — so the same structure serves snapshot semantics
    (round [r] matches only facts with stamp [< r]), delta extraction
    (facts with stamp exactly [r-1], a contiguous range of fact ids) and
    activity checks against the live instance (no bound).

    Buckets preserve insertion order (oldest first), keeping the engine
    deterministic.  Lookups bump [probes] on the {!Stats.t} of the view
    they go through.  A {!Fact.t} is built only on request ({!to_fact},
    {!fact}), at the engine's boundary: the engine materialises each
    relation's {!derived} range once, after saturation, to build its
    result.

    {b One layer, round barriers.}  Every fact lives in the same tables
    from the moment {!add} stamps it.  Inserts happen only in the
    engine's sequential fire phase, after a round's match tasks (which
    may run on pool workers) have all returned, so lookups never race a
    resize.  {!commit}, at the round barrier, turns the facts added since
    the previous commit into each relation's {!delta} range. *)

open Tgd_syntax

type t
type rel
(** One relation's record: shared by every {!with_stats} view. *)

val create : ?stats:Stats.t -> unit -> t
(** Fresh empty index.  [stats] defaults to a private throw-away record. *)

val with_stats : t -> Stats.t -> t
(** A view of the same index whose lookups bump a different {!Stats.t} —
    used to give each parallel match task its own counter record while
    sharing the underlying tables (read-only during matching). *)

(** {2 Interned constants} *)

val intern : t -> Constant.t -> int
(** The id of a constant, assigning the next dense id on first sight. *)

val fresh : t -> Constant.t -> int
(** A new id for a constant known to be absent from the index (a null the
    engine has just invented).  It is not entered in the intern table, so
    {!intern} must never be asked for it. *)

val constant : t -> int -> Constant.t

(** {2 Relations and facts} *)

val relation : t -> Relation.t -> rel
(** The record of a relation, created empty on first request. *)

val find_relation : t -> Relation.t -> rel option

val relations : t -> rel list
(** Every relation record, newest first. *)

val rel_relation : rel -> Relation.t

val add : t -> rel -> round:int -> int array -> bool
(** Insert the tuple with stamp [round]; [false] when it is already
    present (the index is unchanged — first stamp wins).  The tuple is
    copied, so the caller may reuse the array. *)

val to_fact : t -> rel -> int array -> Fact.t
(** The boundary {!Fact.t} of a tuple of ids. *)

val fact : t -> rel -> int -> Fact.t
(** [fact idx r id] is the boundary {!Fact.t} of fact [id]. *)

val arg : rel -> int -> int -> int
(** [arg r id pos] is the constant id at position [pos] of fact [id]. *)

val commit : t -> unit
(** The round barrier: in every relation, the facts added since the
    previous commit become its {!delta} — O(relations).  Rounds must be
    committed in non-decreasing order to keep bucket stamps monotone. *)

val delta : rel -> int * int
(** [(lo, hi)]: the fact ids [lo ≤ id < hi] the last {!commit} handed
    over, in insertion order. *)

val derived : rel -> int * int
(** [(lo, hi)]: the facts with stamp [≥ 1] — everything a run derived
    on top of its input — are the ids [lo ≤ id < hi].  Stamps are
    monotone along ids, so this is a suffix of the relation.  Not counted
    as a probe. *)

val fact_count : t -> int
(** Number of facts in the index — O(1). *)

val mem_up_to : t -> rel -> up_to:int -> int array -> bool
(** Membership of a ground tuple with stamp [≤ up_to] — the cheapest
    possible probe for a fully bound atom, used so activity checks never
    fall back to relation scans.  Counts as one probe. *)

val lookup : t -> rel -> up_to:int -> pos:int -> int -> int array * int
(** [(ids, n)]: the facts with the given constant id at position [pos] and
    stamp [≤ up_to] are [ids.(0) … ids.(n-1)], oldest first.  The array
    is the bucket's own storage: read it before the next {!add}.  Counts
    as one probe. *)

val all : t -> rel -> up_to:int -> int
(** [n]: the facts of the relation with stamp [≤ up_to] are the ids
    [0 … n-1].  Counts as one probe. *)

val bucket_size : rel -> pos:int -> int -> int
(** Size of the (position, constant id) bucket, ignoring stamps — the
    selectivity estimate used to order joins.  Free: not counted as a
    probe. *)

val rel_size : rel -> int
(** Number of facts of the relation.  Not counted as a probe. *)
