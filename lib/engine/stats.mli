(** Engine counters.

    One mutable record accumulates the work performed by the saturation
    engine ({!Fact_index} probes, triggers scanned and fired, delta sizes,
    wall time split into the match, fire, barrier-merge and load/build
    phases, which together cover a whole run) and by the
    entailment memo ({!Memo} hits and misses).  Every engine run writes its
    own fresh record — surfaced through [Chase.result] — and additionally
    folds its counters into {!global}, so callers that orchestrate many runs
    (the rewriting algorithms, [tgdtool --stats], the bench harness) can
    diff {!global} around a region of interest.

    [scans] counts each trigger enumerated during matching exactly once, on
    both paths: the naive loop re-enumerates every trigger of the full
    snapshot each round, while the semi-naive engine only enumerates
    triggers touching the delta — making the two counts directly
    comparable.  Activity checks are not scans; they pay for themselves in
    index [probes] (and on the naive path, which has no index, they are
    part of the rescan already counted). *)

type t = {
  mutable probes : int;      (** index bucket lookups (incl. ground hits) *)
  mutable scans : int;       (** triggers enumerated during matching *)
  mutable fired : int;       (** triggers fired *)
  mutable rounds : int;      (** saturation rounds performed *)
  mutable delta_facts : int; (** total size of all deltas (new facts) *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable snapshots : int;   (** checkpoint bases written ({!Delta_log}) *)
  mutable delta_records : int; (** incremental delta records appended ({!Delta_log}) *)
  mutable compactions : int;   (** delta chains folded into a fresh base *)
  mutable chunks : int;        (** chunks submitted to the {!Pool} *)
  mutable chunks_stolen : int; (** chunks claimed off their intended slot *)
  mutable chunk_items : int;   (** items carried by submitted chunks *)
  mutable match_time : float; (** seconds spent enumerating triggers *)
  mutable fire_time : float;  (** seconds spent checking/firing/inserting *)
  mutable merge_time : float; (** seconds in round-barrier merges (batch
                                  joins, {!Fact_index} delta commits) *)
  mutable build_time : float; (** seconds loading the input into the
                                  {!Fact_index} and building the result
                                  instance from it *)
}

val create : unit -> t
val copy : t -> t

val add : into:t -> t -> unit
(** Pointwise accumulation. *)

val diff : t -> t -> t
(** [diff after before] — pointwise subtraction; use with {!copy} of
    {!global} to attribute counters to a region of code. *)

val global : unit -> t
(** The calling domain's accumulator (domain-local storage).  Every engine
    run and memo access adds to the accumulator of the domain it runs on, so
    counters are race-free under {!Pool} parallelism; the pool folds each
    worker's delta back into the submitting domain when a parallel batch
    joins.  Single-domain programs observe exactly the old process-wide
    semantics. *)

val hit_rate : t -> float
(** [memo_hits / (memo_hits + memo_misses)]; 0 when no lookup happened. *)

val pp : t Fmt.t
