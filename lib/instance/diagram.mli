(** Relative diagrams (Section 4.1).

    For [K ≤ I] and [ℓ ≥ 0], the [ℓ]-diagram [Δ^I_{K,ℓ}] is the conjunction
    of (i) the facts of [K], (ii) inequalities between the distinct constants
    of [dom(K)], and (iii) the negations [¬∃ȳ γ(ȳ)] of all the
    existentially-quantified conjunctions over [dom(K) ∪ {⋆_1,…,⋆_ℓ}] that
    {e fail} in [I].  The formula [Φ^I_{K,ℓ}(x̄)] renames each constant [c]
    to a variable [x_c]; Claim 4.6 turns [¬∃x̄ Φ^I_{K,ℓ}(x̄)] into an edd of
    [E_{n,m}].  We materialize that edd directly. *)

open Tgd_syntax

val atomic_formulas : Schema.t -> Constant.Set.t -> int -> Atom.t list
(** [A_{K,ℓ}]: all atoms over the schema with arguments from the given
    constants and [ℓ] distinguished variables [⋆_1 … ⋆_ℓ]. *)

val star_var : int -> Variable.t
(** The variable [⋆_i] (1-based). *)

val const_var : Constant.t -> Variable.t
(** The variable [x_c] replacing the constant [c]. *)

type conjunct_filter = {
  max_atoms : int option;
      (** Cap on the size of enumerated conjunctions [γ]; [None] = all
          (exponential in [|A_{K,ℓ}|]). *)
}

val violated_conjuncts :
  ?filter:conjunct_filter ->
  Instance.t ->
  Constant.Set.t ->
  int ->
  Atom.t list list
(** The conjunctions [γ(ȳ) ∈ C_{K,ℓ}] (over the given constants) with
    [I ⊭ ∃ȳ γ(ȳ)].  Atoms still carry the constants of [dom(K)]. *)

val claim_4_6_edd :
  ?filter:conjunct_filter -> k:Instance.t -> i:Instance.t -> m:int -> unit ->
  Edd.t option
(** The edd [δ ≡ ¬∃x̄ Φ^I_{K,m}(x̄)] of Claim 4.6 (constants renamed to
    variables; equalities between the [x_c]; one existential disjunct per
    violated conjunction).  [None] when the head would be empty, i.e. when
    [Φ] has no negative conjunct — which by the paper's argument cannot
    happen under the assumptions of Claim 4.5. *)

val lemma_4_3_holds :
  ?filter:conjunct_filter -> k:Instance.t -> i:Instance.t -> m:int -> unit ->
  bool
(** Lemma 4.3: [I ⊨ ∃x̄ Φ^I_{K,m}(x̄)] whenever [K ≤ I]. *)
