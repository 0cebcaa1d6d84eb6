(** Chase stratification (after Deutsch–Nash–Remmel).

    Rules are partitioned into strata along a relation-level
    over-approximation of the chase precedence: rule [i] precedes rule
    [j] when some head relation of [i] occurs in [j]'s body.  Strongly
    connected components of that graph are the strata, listed
    sources-first so a left-to-right pass respects the chase order.

    Over-approximating the precedence only merges strata, never splits
    mutually feeding rules, so composing per-stratum termination
    certificates along the stratum order stays sound: if every stratum
    certifies on its own, the Skolem chase of the whole set terminates
    on every instance. *)

open Tgd_syntax

type t = {
  n_rules : int;
  edges : (int * int) list;
      (** the relation-level precedence over rule indices *)
  strata : int list list;
      (** SCCs of the precedence, sources first, each sorted ascending *)
}

val build : Tgd.t list -> t

val is_trivial : t -> bool
(** [true] when there is at most one stratum — stratification cannot
    refine the analysis. *)

val rules_of : Tgd.t list -> int list -> Tgd.t list
(** The sub-program at the given rule indices, in index order. *)
