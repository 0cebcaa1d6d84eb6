(** Indexed semi-naive saturation.

    A delta-driven replacement for the snapshot-rescan chase loop: round 1
    enumerates every body homomorphism against the input facts; round [r > 1]
    only enumerates triggers whose body touches at least one fact derived in
    round [r-1], by pivoting each body atom through the delta and matching
    the remaining atoms against stamped index lookups (atoms left of the
    pivot see only rounds [≤ r-2], atoms right of it rounds [≤ r-1] — the
    classic stratification, so no trigger is enumerated twice).

    {b Compiled rules over interned ids.}  A run interns the input's
    constants into dense ids ({!Fact_index}) and compiles each rule of Σ
    into a slot plan: every variable becomes an index into a per-trigger
    [int array] of constant ids, each body and head atom points at its
    relation's index record, and the frontier and existential slots are
    fixed once.  Matching and firing then work on ids, with callbacks
    rather than sequences; a {!Fact.t} or {!Binding.t} is built only at the
    boundary.  With no hook, the fire phase only inserts id tuples into the
    index; it builds a round's new facts as [Fact.t]s only for [on_commit],
    and a fire's head facts and binding only for [on_fire].

    {b The result is built from the index.}  The input is loaded one
    relation at a time.  After the loop, each relation's derived range
    ({!Fact_index.derived}, the facts with stamp [≥ 1]) becomes one
    {!Fact.Set} and is joined to the input's set for that relation.  The
    domain is the input's plus the nulls the run invented and placed in
    facts; their numbers are consecutive, so no pass over the new facts'
    constants is needed.  The nulls of a trigger whose [on_fire] raised
    {!Halt} are never placed, and stay out of the domain.

    A rule is compiled when one of its match tasks is first built, on the
    domain that submits the round, so a rule whose body never meets a fact
    costs nothing to compile; the thousands of tiny entailment chases of a
    rewriting sweep depend on this.  In round 1, a rule with a body atom
    over an empty relation builds no task at all: it books exactly the one
    probe the join would have spent finding that relation empty, so the
    work counters are the same as for a full search.

    The restricted / oblivious semantics of [Chase] are preserved exactly:

    - [Restricted] rechecks trigger activity against the {e live} instance
      immediately before firing (activity is antitone in the instance, so
      skipping re-enumeration of old triggers loses nothing);
    - [Oblivious] fires every trigger exactly once, identified by the rule
      and its universal binding, like [Trigger.key]: rules equal under
      {!Tgd.equal} share their keys;
    - [Skolem] is the semi-oblivious chase: triggers are identified by the
      (rule, {e frontier} binding) key instead, so two body homomorphisms
      agreeing on the frontier fire once between them.  The invented nulls
      then stand in bijection with the Skolem terms
      [f_{σ,z}(frontier values)] of the Skolemized rule set — this is the
      mode the critical-instance termination analysis
      ({!Tgd_analysis}'s MFA pass) drives.

    Nulls are numbered per fired trigger in the order of the rule's
    existential variables' names.  Joins are ordered dynamically by index
    selectivity: at each step the engine matches the pending atom whose
    tightest (position, constant) bucket is smallest, the earliest atom on
    ties. *)

open Tgd_syntax
open Tgd_instance

type mode =
  | Restricted
  | Oblivious
  | Skolem

exception Halt
(** An [on_fire] callback may raise [Halt] to stop the saturation
    immediately and cooperatively: the facts of the halting trigger are not
    added, the run returns [Truncated Cancelled] with the instance as of
    the last committed round plus the facts fired earlier in the current
    round.  Used by analyses that drive the chase as an instrument and can
    reach a verdict before saturation (e.g. cyclic-Skolem-term
    detection). *)

type outcome =
  | Terminated
  | Truncated of Budget.exhaustion

type result = {
  instance : Instance.t;
  outcome : outcome;
  rounds : int;
  fired : int;
  stats : Stats.t;
}

val max_null : Instance.t -> int
(** The largest null number in the instance's domain (nested in pairs
    too), [0] when there is none; a run numbers its fresh nulls from the
    next one up. *)

val run :
  mode:mode ->
  ?budget:Budget.t ->
  ?on_fire:(Tgd.t -> Binding.t -> Fact.t list -> unit) ->
  ?on_commit:(round:int -> fired:int -> Fact.t list -> unit) ->
  ?pool:Pool.t ->
  ?chunk:int ->
  Tgd.t list ->
  Instance.t ->
  result
(** [run ~mode sigma inst] saturates [inst] under [sigma] within [budget]
    (default {!Budget.default}).  [on_fire] observes every fired trigger —
    the tgd, its body homomorphism ({e before} null invention, as in
    [Chase]), and the grounded head facts (new or not).  [on_commit]
    observes every round barrier that commits: the round number, the
    run's fired count so far, and the round's flat delta (exactly the
    facts added to the instance this round, in insertion order —
    deterministic across [jobs]/[chunk]).  Every fact the result adds to
    the input is handed over exactly once, and the batch sizes sum to
    [Stats.delta_facts]; rounds discarded by a match-phase trip are
    {e not} reported, matching the truncation commit rule below.  This is
    the hook incremental checkpoints ({!Delta_log}) are written from.  Both hooks are optional, and only they make the fire phase
    build {!Fact.t}s; passing them changes neither the result nor the
    work counters.  When [pool] is
    given, each round's match phase runs its per-(tgd, pivot) tasks on the
    pool's worker domains ([chunk] tasks per claim, see
    {!Pool.parallel_map}); results and all counters are merged in task
    order, so the outcome, trigger order, and stats totals are identical to
    the sequential run.  The fire phase is always sequential and linear in
    the facts it derives; each round ends with a {!Fact_index.commit}
    barrier turning the round's new facts into the next round's pivot
    ranges (timed in [Stats.merge_time]).  Loading the input and building
    the result are timed in [Stats.build_time].

    Budget checks are cooperative: the full check (clock, memory, fuel)
    runs at every round boundary, every 16th trigger of the fire phase, and
    strided inside match tasks; the cancellation token is polled per match
    item.  The truncation commit rule keeps partial results deterministic
    across [jobs]: a trip during the {e match} phase discards that round's
    triggers entirely (the partial instance is the last fully committed
    round), while a trip during the always-sequential {e fire} phase keeps
    the facts fired so far — in both cases the partial instance is a prefix
    of the same deterministic chase sequence.  Injected faults
    ({!Chaos.Injected}) surface as [Truncated (Fault site)] and follow the
    same rule: one in the match phase drops the round, one in the fire
    phase still runs the round's barrier.  The result's [stats] are also folded into
    the calling domain's {!Stats.global} accumulator. *)
