(** Ontologies as semantic objects (Section 2).

    An ontology over S is an isomorphism-closed class of S-instances.  Three
    presentations are supported:

    - {e axiomatic}: the models of a finite set of tgds — the
      [C]-ontologies of the paper;
    - {e extensional}: the isomorphism closure of a finite list of instances
      restricted to domains of at most a declared size (a bounded-universe
      ontology, used to exercise the characterizations on classes that are
      {e not} tgd-axiomatizable);
    - {e oracle}: an arbitrary membership predicate (closed under
      isomorphism by the caller's promise). *)

open Tgd_syntax
open Tgd_instance

type t

val axiomatic : ?name:string -> Schema.t -> Tgd.t list -> t
(** Raises [Invalid_argument] if some tgd uses a relation outside the
    schema. *)

val extensional : ?name:string -> Schema.t -> Instance.t list -> t
(** Membership = isomorphism with one of the given instances. *)

val oracle : ?name:string -> Schema.t -> (Instance.t -> bool) -> t

val schema : t -> Schema.t

val axioms : t -> Tgd.t list option
(** [Some sigma] for axiomatic ontologies. *)

val mem : t -> Instance.t -> bool
(** [I ∈ O]. *)

val models_up_to : t -> int -> Instance.t Seq.t
(** Members with canonical domains of size [≤ k]. *)

val non_members_up_to : t -> int -> Instance.t Seq.t

val chase_witness :
  ?budget:Tgd_chase.Chase.budget -> t -> Instance.t -> Instance.t option
(** For an axiomatic ontology, [chase(K, Σ)] when the chase terminates — a
    member of [O] containing [K], the canonical witness [J_K] used by the
    local-embeddability checkers.  [None] for non-axiomatic ontologies or
    when the budget is exhausted. *)

val member_extending :
  ?max_extra:int -> t -> Instance.t -> Instance.t Seq.t
(** Members [J ∈ O] with [K ⊆ J], searched over instances whose domain is
    [adom(K)] plus at most [max_extra] (default 1) fresh canonical
    constants.  Exhaustive within that bound. *)

val restrict_mem : t -> (Instance.t -> bool) -> t
(** Intersect with a predicate (handy for building oracle variations). *)

val of_theory : ?name:string -> Schema.t -> Tgd_chase.Theory.t -> t
(** Membership = satisfaction of the mixed theory (tgds + egds + denial
    constraints) — the ontologies of the paper's Section 10 outlook.  Note
    that these generally violate criticality (a critical instance violates
    every non-trivial egd), which is exactly why Step 3 of Theorem 4.1 can
    discard the egds of [Σ^{∃,=}]. *)
