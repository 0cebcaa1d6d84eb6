(** Server-scope warm state: the entailment memo, chase-result cache,
    analyze reports and termination certificates, shared across every
    connection of a server, under one byte ceiling.

    The underlying tables are process-wide; a server "owns" them in the
    sense that it installs the ceiling at startup and reports their
    counters.  Repeated classify/entail/rewrite requests from different
    connections hit the same warm entries — the whole point of serving
    from one process. *)

val configure : cache_bytes:int option -> unit
(** Install (or with [None] remove) an overall byte ceiling with LRU
    eviction over every serve-scope table: 14/32 each to the entailment
    caches and the chase-result cache, 2/32 to the analyze reports, 1/32
    to each termination-certificate cache.  Changing the ceiling clears
    the tables (see {!Tgd_engine.Memo.set_limit}). *)

val reset : unit -> unit
(** Drop all warm entries (counters on the fresh tables restart at 0). *)

val counters : unit -> Tgd_engine.Memo.counters
(** Combined hit/miss/entry/byte/eviction counters across the tables. *)

val counters_json : Tgd_engine.Memo.counters -> Tgd_serve.Json.t
(** The counters as a response fragment:
    [{"hits": …, "misses": …, "entries": …, "approx_bytes": …,
    "evictions": …}]. *)
