(** Rule-level lints.

    Each pass returns diagnostics indexed into the rule list it was given.
    The subsumption pass needs entailment, which lives above this library in
    the dependency order, so it takes the prover as an [oracle] argument —
    [Analyze.run] injects [Entailment]-backed closures when asked to. *)

open Tgd_syntax

val duplicates : Tgd.t list -> Diagnostic.t list
(** Rules syntactically equal to an earlier rule up to variable renaming
    (via {!Canonical.equal_up_to_renaming}); the later occurrence is
    flagged.  [Warning], code ["duplicate-rule"]. *)

val tautological : Tgd.t -> bool
(** Does the head map homomorphically into the body, fixing the frontier?
    Equivalent to entailment by the empty theory, decided without a chase;
    {!Candidates} uses it to prune tautological candidates statically. *)

val unused_universals : Tgd.t list -> Diagnostic.t list
(** Universal variables occurring exactly once in the rule (one body
    position, never in the head): they only assert that the position is
    occupied and usually indicate a typo.  [Info], code
    ["unused-universal"]. *)

val class_downgrades : Tgd.t list -> Diagnostic.t list
(** Hints that a rule narrowly misses a cheaper syntactic class: a
    frontier-guarded rule one guard atom short of guarded (the missing
    universals are listed), or a guarded rule with a two-atom body that a
    join rewrite could make linear.  [Hint], codes ["almost-guarded"] /
    ["almost-linear"]. *)

val subsumed :
  oracle:(Tgd.t list -> Tgd.t -> bool) -> Tgd.t list -> Diagnostic.t list
(** Rules entailed by the other rules of the set: [oracle rest rule] must
    return [true] only when [rest ⊨ rule] definitely holds.  [Warning],
    code ["subsumed-rule"].  Duplicate rules are reported by {!duplicates}
    already, so exact (up to renaming) copies are skipped here. *)

val all : ?oracle:(Tgd.t list -> Tgd.t -> bool) -> Tgd.t list -> Diagnostic.t list
(** Every pass above; the subsumption pass only when an oracle is given. *)
