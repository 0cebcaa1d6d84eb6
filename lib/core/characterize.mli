(** The constructive content of Theorem 4.1 — Steps 1–3 of Section 4.2 —
    realized over bounded universes.

    Given an ontology presented by a membership oracle (any {!Ontology.t}),
    the pipeline builds

    - [Σ^∨]: the edds of [E_{n,m}] satisfied by every member (Step 1),
    - [Σ^{∃,=}]: its tgds and egds (Step 2),
    - [Σ^∃]: its tgds (Step 3),

    where "every member" is every member with a canonical domain of size at
    most [dom_bound], and [E_{n,m}] is enumerated under syntactic caps.  For
    ontologies that really are [TGD_{n,m}]-ontologies (and parameters large
    enough to cover them), [Σ^∃] is an equivalent axiomatization, which
    {!verify_axiomatization} then certifies exhaustively. *)

open Tgd_syntax
open Tgd_instance

type caps = {
  max_body_atoms : int;
  max_conjunct_atoms : int;  (** atoms per existential disjunct *)
  max_disjuncts : int;
  dom_bound : int;           (** validity is checked on members up to this size *)
}

val edds_e_nm : ?caps:caps -> Schema.t -> n:int -> m:int -> Edd.t Seq.t
(** The (capped) class [E_{n,m}] over the schema: bodies over at most [n]
    variables, disjuncts that are equalities between body variables or
    existential conjunctions with at most [m] existential variables. *)

val sigma_vee :
  ?caps:caps -> ?jobs:int -> ?budget:Tgd_engine.Budget.t ->
  Ontology.t -> n:int -> m:int -> Edd.t list Tgd_engine.Budget.outcome
(** Step 1.  [jobs > 1] validates candidate edds against the bounded
    members on a domain pool; the result list is identical to the
    sequential one (order preserved).  [budget] (default
    {!Tgd_engine.Budget.unlimited}) is polled at candidate-batch
    boundaries; a truncated sweep returns the valid edds committed so far —
    a deterministic prefix at any [jobs]. *)

val sigma_exists_eq : Edd.t list -> Dependency.t list
(** Step 2: the tgds and egds among [Σ^∨]. *)

val sigma_exists : Dependency.t list -> Tgd.t list
(** Step 3: the tgds among [Σ^{∃,=}]. *)

val synthesize :
  ?caps:caps -> ?candidate_caps:Candidates.caps -> ?minimize:bool ->
  ?jobs:int -> ?budget:Tgd_engine.Budget.t ->
  Ontology.t -> n:int -> m:int -> Tgd.t list Tgd_engine.Budget.outcome
(** Direct route to [Σ^∃]: enumerate [TGD_{n,m}] candidates and keep those
    satisfied by every bounded member of the ontology.  Equivalent to
    [sigma_exists (sigma_exists_eq (sigma_vee …))] but far cheaper (no
    disjunctions), since Steps 2–3 discard everything but the tgds.  With
    [~minimize:true] redundant members are removed by chase entailment
    (skipped on a truncated sweep — the partial set is valid but
    incomplete, and minimization would spend more of an exhausted
    budget).  [budget] as in {!sigma_vee}. *)

val verify_axiomatization :
  Ontology.t -> Tgd.t list -> dom_size:int -> Instance.t option
(** A countermodel (member without the property, or model that is not a
    member) among instances up to the given size, or [None]. *)

(** {2 Theorem 5.6 — the FTGD profile} *)

type ftgd_profile = {
  one_critical : bool;
  domain_independent : bool;
  modular : bool;          (** n-modularity for the given [modularity_n] *)
  intersection_closed : bool;
  non_oblivious_closed : bool;
}

val ftgd_profile :
  ?dom_size:int -> ?modularity_n:int -> Ontology.t -> ftgd_profile
(** The five properties of Theorem 5.6, checked on bounded universes
    ([dom_size] defaults to 2, [modularity_n] to [dom_size]). *)

val ftgd_profile_holds : ftgd_profile -> bool
(** All five — the bounded face of "O is an FTGD-ontology". *)

(** {2 End-to-end classification of black-box ontologies} *)

type classification = {
  axioms : Tgd.t list option;
      (** a verified [TGD_{n,m}] axiomatization, when one exists on the
          bounded universe *)
  diagnosis : Expressibility.report option;
      (** class-lattice analysis of the recovered axioms *)
  analysis : Tgd_analysis.Analyze.report option;
      (** static analysis of the recovered axioms: termination certificate,
          dependency-graph reachability, rule lints
          ({!Tgd_analysis.Analyze.run}) *)
}

val classify_oracle :
  ?caps:caps -> ?candidate_caps:Candidates.caps -> ?config:Rewrite.config ->
  Ontology.t -> n:int -> m:int -> classification
(** The composition of the paper's two directions: synthesize [Σ^∃] from the
    membership oracle (Theorem 4.1), verify it on the bounded universe, and
    — if it verifies — diagnose which of the paper's classes it falls into
    (Corollaries 4.2, 5.1, 6.5, 7.5, 8.5, decided by the Section 9
    machinery). *)
