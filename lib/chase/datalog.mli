(** Semi-naive Datalog evaluation for full tgds.

    Full tgds are exactly Datalog rules (no existentials, possibly
    multi-atom heads).  Saturation delegates to the indexed semi-naive
    engine ({!Tgd_engine.Seminaive}): each round only joins rule bodies in
    which at least one atom matches a {e delta} fact derived in the previous
    round, with the remaining atoms resolved against (relation, position,
    constant) hash indexes.

    Resource governance: saturation runs under a {!Tgd_engine.Budget} and
    returns a typed {!Tgd_engine.Budget.outcome} instead of raising — a
    truncated saturation still carries the sound prefix computed so far.

    Used as the fast path for entailment between full tgds and exposed as an
    ablation against {!Chase} (bench [ablate-datalog]). *)

open Tgd_syntax
open Tgd_instance
open Tgd_engine

val saturate :
  ?budget:Budget.t -> Tgd.t list -> Instance.t -> Instance.t Budget.outcome
(** Least fixpoint of the rules over the instance.  [Complete] carries the
    fixpoint; [Truncated] carries the sound partial instance computed when
    the budget tripped, with the reason and engine counters.  Raises
    [Invalid_argument] if some tgd has existential variables. *)

type stats = { rounds : int; derived : int }

val saturate_with_stats :
  ?budget:Budget.t ->
  Tgd.t list -> Instance.t -> (Instance.t * stats) Budget.outcome

val entails : ?budget:Budget.t -> Tgd.t list -> Tgd.t -> Entailment.answer
(** Entailment between full tgds: freeze the goal body, saturate, check the
    goal head.  Exact ([Proved]/[Disproved]) when saturation completes —
    both sides are existential-free; a truncated saturation still proves
    positives from its sound prefix but reports [Unknown] instead of
    [Disproved]. *)
