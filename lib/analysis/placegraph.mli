(** Place graphs and super-weak acyclicity (Marnette, PODS 2009).

    The position dependency graph of {!Termination} collapses every
    occurrence of a relation to one node per argument position.  A
    {e place} keeps occurrences apart — one node per argument position of
    each atom occurrence of each rule — and null propagation between
    places is tested by {e unification of Skolemized atoms} rather than
    position equality, so a rule like [T(y,y) -> S(y)] only consumes a
    null that can actually appear in both arguments of one [T]-fact.

    Super-weak acyclicity holds when the rule-level trigger relation
    [σ ⊏ σ'] — "a null invented by σ can move into a body place of σ',
    enabling a new trigger" — is acyclic.  It guarantees termination of
    the Skolem (semi-oblivious) and therefore also the restricted chase
    on every instance.  SWA strictly generalizes weak acyclicity and is
    incomparable with joint acyclicity. *)

open Tgd_syntax

type place = { rule : int; atom : int; pos : int }
(** One argument position of one atom occurrence.  [rule] indexes the
    analysed list; [atom] indexes the rule's body or head atom list
    (which one is determined by context); [pos] is the argument
    position. *)

type swa_witness = {
  moves : (int * place list) list;
      (** For each rule [i], the closure [Move(Σ, Out(σ_i))] as a set of
          {e head} places: every head place a null invented by [σ_i] can
          be copied out of. *)
  trigger_edges : (int * int) list;
      (** The trigger relation computed from [moves] — acyclic, or the
          witness would be a refutation. *)
}

type swa_refutation = { rule_cycle : int list }
(** Rules forming a cycle of the trigger relation. *)

val analyse : Tgd.t list -> (swa_witness, swa_refutation) result

val is_super_weakly_acyclic : Tgd.t list -> bool

val pp_refutation : swa_refutation Fmt.t
