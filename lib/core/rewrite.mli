(** The rewriting procedures of Section 9: Algorithm 1 (G-to-L) and
    Algorithm 2 (FG-to-G).

    Both follow the paper verbatim: collect every candidate tgd of the
    target class with at most [n] universal and [m] existential variables
    (the bounds carried by the input set — justified by the Linearization
    and Guardedization Lemmas) that is entailed by the input, then test
    whether the collected set entails the input back.

    Two sources of approximation are surfaced honestly in the result:
    entailment is chase-based and three-valued, and the candidate space may
    be capped (see {!Candidates.caps}).  A [Not_rewritable] verdict is
    definitive exactly when [complete] is true and no candidate or backward
    check came back unknown — on the paper's own examples both hold.

    Resource governance: every procedure runs under the config's
    {!Tgd_engine.Budget} and returns a {!Tgd_engine.Budget.outcome}.  A
    truncated run carries a {!checkpoint} — the candidate cursor plus the
    answers screened so far — and passing it back as [?resume] continues
    the enumeration from the cursor instead of restarting, so
    [resume ∘ truncate] converges to the unbudgeted result. *)

open Tgd_syntax
open Tgd_instance
open Tgd_engine

type checkpoint = {
  cursor : int;
      (** candidates consumed from the enumeration — always a batch
          boundary, so resuming re-screens nothing twice *)
  screened_prefix : (Tgd.t * Tgd_chase.Entailment.answer) list;
      (** the (candidate, answer) pairs already committed, in enumeration
          order *)
}

type config = {
  caps : Candidates.caps;
  budget : Tgd_chase.Chase.budget;
  minimize : bool;  (** greedily drop redundant members of [Σ'] *)
  naive : bool;     (** route chases through the snapshot-rescan loop *)
  memo : bool;      (** cache entailment answers and chases (default) *)
  jobs : int;
      (** worker domains screening candidates in parallel; [1] (the
          default) bypasses the pool entirely.  Pools are borrowed from
          the warm registry ({!Tgd_engine.Pool.with_warm}), so repeated
          sweeps pay no domain spawns.  Outcomes are independent of
          [jobs]: screening preserves candidate order, and the backward
          [Σ' ⊨ Σ] check and minimization are always sequential. *)
  chunk : int option;
      (** candidates per pool claim.  [None] (the default) sizes chunks
          from the analysis strategy
          ({!Tgd_analysis.Strategy.screen_chunk}): certified-terminating
          sets pack many cheap candidates per claim, uncertified sets get
          small chunks for load balance.  Outcomes are independent of
          [chunk]. *)
  analyze : bool;
      (** run the static-analysis prefilter (default, {!prefilter}):
          candidates whose head mentions a relation outside the
          relation-level derivability closure of their body are answered
          [Disproved] on the submitting domain without chasing, so only
          the rest reach the pool; the chases that do run inherit
          certificate-based promotion ({!Tgd_chase.Chase.restricted}).
          The outcome is unchanged either way — the prefilter only skips
          work the chase would have rejected. *)
  checkpoint : checkpoint Tgd_engine.Delta_log.journal option;
      (** journal the screening checkpoint to this delta chain
          ({!Tgd_engine.Delta_log.load_journal} with {!decode_chain}) at
          batch boundaries and on truncation, and remove it on completion
          — so a killed sweep resumes from disk.  Each save appends only
          the entries committed since the last one.  A journal that
          resumed a chain supplies the resume point ([?resume] must then
          be absent); a fresh one starts its chain at [?resume], or at
          the empty sweep.  [None] (default): no persistence. *)
  checkpoint_every : int;
      (** committed batches between durable saves (default 1 = every
          batch).  Larger values trade re-screening after a crash for
          less write amplification. *)
}

val default_config : config

type outcome =
  | Rewritable of Tgd.t list
  | Not_rewritable of { complete : bool; unknown_candidates : int }
  | Unknown of string

val pp_outcome : outcome Fmt.t

val log_config :
  ?fsync:bool -> dir:string -> name:string -> unit ->
  Tgd_engine.Delta_log.config
(** An incremental checkpoint log of kind ["rewrite-delta"] under [dir]
    ([fsync] syncs every barrier, default off). *)

val decode_chain : Tgd_engine.Delta_log.chain -> checkpoint
(** Replay a loaded sweep chain to its checkpoint: the [decode] to pass
    {!Tgd_engine.Delta_log.load_journal}.
    @raise Tgd_engine.Wire.Corrupt on bytes that do not decode. *)

type report = {
  outcome : outcome;
  n : int;
  m : int;
  candidates_enumerated : int;
  candidates_entailed : int;
  candidates_skipped : int;
      (** committed candidates rejected by the analysis prefilter
          (without a chase), a resumed prefix's included — so a resumed
          run reports what a cold one does; a discarded batch counts
          nothing.  Always [0] with [analyze = false] *)
  checkpoint : checkpoint option;
      (** [Some] exactly on truncated reports: where to resume *)
  stats : Tgd_engine.Stats.t;
      (** engine work attributed to this rewrite: index probes, triggers
          scanned/fired, memo hit rate (diff of {!Tgd_engine.Stats.global}
          around the run) *)
}

val schema_of : Tgd.t list -> Schema.t
val class_bounds : Tgd.t list -> int * int
(** [(n, m)]: maximum universal / existential variable counts over the set. *)

val prefilter : Tgd.t list -> Tgd.t -> bool
(** [prefilter sigma] is the analysis prefilter of a sweep over [sigma]:
    [true] for a candidate whose head mentions a relation outside the
    derivability closure ({!Tgd_analysis.Depgraph.close}) of its body
    relations, which [sigma] therefore does not entail.  The closure is
    computed once per distinct body relation set and cached in the
    returned predicate, which is for one domain at a time. *)

val g_to_l :
  ?config:config -> ?resume:checkpoint -> Tgd.t list -> report Budget.outcome
(** Algorithm 1.  Raises [Invalid_argument] when the input is not a set of
    guarded tgds. *)

val fg_to_g :
  ?config:config -> ?resume:checkpoint -> Tgd.t list -> report Budget.outcome
(** Algorithm 2.  Raises [Invalid_argument] when the input is not a set of
    frontier-guarded tgds. *)

val verify_equivalence_bounded :
  Tgd.t list -> Tgd.t list -> dom_size:int -> Instance.t option
(** Exhaustive model-agreement check on all instances with canonical domains
    of size [≤ dom_size]; [Some] is a countermodel distinguishing the two
    sets. *)

val to_frontier_guarded :
  ?config:config -> ?resume:checkpoint -> Tgd.t list -> report Budget.outcome
(** Rewrite an arbitrary finite set of tgds into frontier-guarded ones when
    possible — the Zhang-et-al. direction the paper's related work cites;
    built on the same generic engine with {!Candidates.frontier_guarded}
    candidates. *)

val to_full :
  ?config:config -> ?resume:checkpoint -> Tgd.t list -> report Budget.outcome
(** Rewrite into existential-free (full) tgds when possible
    (cf. Corollary 5.1: the target class is [TGD_{n,0}]). *)

val minimize : ?budget:Tgd_chase.Chase.budget -> Tgd.t list -> Tgd.t list
(** Greedy redundancy elimination: repeatedly drop a tgd entailed by the
    remainder (largest first).  The result is logically equivalent to the
    input. *)
