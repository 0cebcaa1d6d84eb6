(** Relational instances over a schema (Section 2).

    An instance is a (finite, in this implementation) domain [dom(I) ⊆ C]
    together with a relation [R^I ⊆ dom(I)^{ar(R)}] for every symbol of the
    schema.  The domain may strictly contain the active domain — this
    distinction matters for domain independence (Definition 3.7). *)

open Tgd_syntax

type t

val empty : Schema.t -> t
(** The empty instance: no facts, empty domain. *)

val of_facts : ?dom:Constant.t list -> Schema.t -> Fact.t list -> t
(** Instance whose facts are the given ones and whose domain is the active
    domain extended with [dom].  Raises [Invalid_argument] if a fact uses a
    relation outside the schema. *)

val extend : t -> nulls:Constant.Set.t -> (Relation.t * Fact.Set.t) list -> t
(** [extend i ~nulls sets] adds each set to its relation's facts and
    [nulls] to the domain, with no pass over the new facts' constants:
    the caller guarantees that each of them is in [dom(i)] or in [nulls].
    This is how the chase engine builds its result, whose only new
    constants are the nulls it invented.  Raises [Invalid_argument] if a
    relation is outside the schema. *)

val add_fact : t -> Fact.t -> t
val add_dom : t -> Constant.t -> t

val schema : t -> Schema.t
val dom : t -> Constant.Set.t
val adom : t -> Constant.Set.t
(** Active domain: constants occurring in at least one fact. *)

val facts : t -> Fact.Set.t
val fact_list : t -> Fact.t list
val facts_of : t -> Relation.t -> Fact.Set.t
val tuples_of : t -> Relation.t -> Constant.t array list

val mem : t -> Fact.t -> bool
val fact_count : t -> int
val dom_size : t -> int

val is_empty : t -> bool

val subset : t -> t -> bool
(** [subset j i] is [J ⊆ I]: [facts(J) ⊆ facts(I)]. *)

val equal_facts : t -> t -> bool
val equal : t -> t -> bool
(** Equal facts {e and} equal domains. *)

val induced : t -> Constant.Set.t -> t
(** [induced i d] is the subinstance of [I] induced by the domain [d]:
    domain [d], relations [R^I] restricted to tuples over [d].  This is the
    [J ≤ I] of the paper when [d ⊆ dom(I)]; constants of [d] outside
    [dom(I)] are ignored. *)

val is_induced_subinstance : t -> t -> bool
(** [is_induced_subinstance j i] is [J ≤ I]. *)

val union : t -> t -> t
(** Domains and facts are unioned.  Schemas are unioned. *)

val intersection : t -> t -> t
(** [dom(I) ∩ dom(J)] and component-wise relation intersection
    (Section 5, "Closure Under Intersections"). *)

val difference_active : t -> t -> t
(** The instance [L] with [facts(L) = facts(J') \ facts(K)] and
    [dom(L) = adom(L)], as used in the proof of Claim 4.5. *)

val map_constants : (Constant.t -> Constant.t) -> t -> t
(** Image instance: domain and facts mapped through the function. *)

val with_dom : t -> Constant.Set.t -> t
(** Replace the domain (must contain the active domain; raises
    [Invalid_argument] otherwise).  Used by domain-independence tests. *)

val shrink_dom_to_adom : t -> t

val active_part : t -> t
(** Same facts, domain shrunk to the active domain. *)

val pp : t Fmt.t
val to_string : t -> string
val compare : t -> t -> int

val disjoint_union : t -> t -> t * (Constant.t -> Constant.t)
(** [disjoint_union i j] renames the domain of [J] apart from [dom(I)]
    (fresh {!Constant.Indexed} names) and unions; the returned function is
    the renaming applied to [J]'s constants.  Used by the closure-under-
    disjoint-union arguments of Appendix F. *)
