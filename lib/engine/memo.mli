(** Entailment caches keyed on canonicalized syntax.

    A memo table maps string keys to previously computed answers; the keys
    are built so that renaming-equivalent inputs collide:

    - {!tgd_key} is the printed {!Canonical.tgd} form (so [σ] and any
      variable-renamed copy share one entry);
    - {!sigma_key} sorts the member keys, making the theory key independent
      of the order tgds are listed in;
    - {!body_key} canonicalizes a conjunction of atoms on its own — the
      chase-level cache uses it so that candidate tgds sharing a body also
      share one chase.

    Canonicalization minimizes over atom permutations and is therefore
    factorial in the atom count; above five atoms the keys fall
    back to a deterministic sorted printed form.  The fallback is sound — it
    only distinguishes some inputs that the exact form would identify,
    reducing the hit rate, never the correctness.

    Hits and misses are counted on the table's own {!Stats.t} {e and} on
    the calling domain's {!Stats.global} accumulator.

    Tables are sharded {!shard_count} ways by key hash, each shard behind
    its own mutex, so concurrent lookups from {!Pool} workers share one
    cache safely.  [compute] callbacks run outside any lock: two domains
    racing on the same fresh key may both compute (one insert is dropped),
    trading a little duplicated work for deadlock freedom. *)

open Tgd_syntax

type 'a t

val create : ?name:string -> unit -> 'a t
val name : 'a t -> string

val shard_count : int
(** Number of lock-protected shards per table. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_add memo key compute] returns the cached answer for [key],
    computing and storing it on first use. *)

val find : 'a t -> string -> 'a option
(** Lookup without computing; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Store without computing or counting; an existing entry wins (same
    last-writer-loses rule as racing [find_or_add] computes).  Paired with
    {!find} by callers that cache conditionally — e.g. only results whose
    truncation is deterministic (see {!Budget}). *)

val clear : 'a t -> unit
val size : 'a t -> int

val set_limit : 'a t -> bytes:int option -> unit
(** Install (or with [None] remove) an approximate byte ceiling on the
    table, split evenly across shards (at least 4 KiB per shard).  With a
    ceiling installed, every insert weighs its value
    ([Obj.reachable_words], so shared substructure is {e over}counted —
    eviction can only fire early, never late) and a shard over its share
    evicts least-recently-used entries down to 7/8 of it; the newest entry
    always survives.  Changing the limit resets the table: footprints
    recorded under the previous regime would be stale. *)

val approx_bytes : 'a t -> int
(** Accounted footprint of the live entries; 0 while no ceiling is
    installed (weighing is skipped entirely on the unlimited path). *)

val evictions : 'a t -> int
(** Entries dropped by the LRU sweep since creation / last limit change. *)

val stats : 'a t -> Stats.t
(** Snapshot of the table's hit/miss counters, merged across shards. *)

type counters = {
  hits : int;
  misses : int;
  entries : int;
  bytes : int;    (** accounted footprint; 0 without a ceiling *)
  evicted : int;
}
(** Flat summary of one table's cache state, cheap to surface in a serve
    response. *)

val combine_counters : counters -> counters -> counters
val counters : 'a t -> counters

val tgd_key : Tgd.t -> string
(** Stable under variable renaming and atom reordering (below
    five atoms); results are cached per tgd. *)

val sigma_key : Tgd.t list -> string
(** Stable under renaming, reordering and duplication of the theory's
    members. *)

val body_key : Atom.t list -> string
(** Canonical key for a conjunction of atoms, stable under variable renaming
    and atom reordering (below five atoms). *)

val body_canonical :
  Atom.t list -> Atom.t list * Variable.t Variable.Map.t * string
(** The canonical conjunction, the renaming from the original variables
    to the canonical ones, and the conjunction's {!body_key} (the
    canonical atoms' rendering), all from one search over the atom
    permutations.  A cached artifact built from the canonical atoms (e.g.
    a frozen chase) can be translated back to any conjunction sharing the
    key.  Above five atoms the atoms are returned sorted by printed form
    under the identity renaming — consistent with {!body_key}'s
    fallback. *)
