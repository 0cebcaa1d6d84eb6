(** Predicate-level dependency graph of a tgd set.

    Nodes are the relation symbols mentioned by the rules; there is an edge
    [R → S] when some rule has [R] in its body and [S] in its head.  This
    relation-level abstraction over-approximates fact flow: anything the
    chase can derive lies inside the {!derivable} fixpoint, which is what
    makes the reachability lints (and the candidate prefilter used by
    rewriting) sound. *)

open Tgd_syntax

type t

val make : Tgd.t list -> t

val relations : t -> Relation.Set.t
(** Every relation mentioned in a body or head. *)

val edb : t -> Relation.Set.t
(** The extensional relations: mentioned, but occurring in no head.  These
    are the input positions of the rule set — the relations a database can
    populate without help from the rules. *)

val sccs : t -> Relation.t list list
(** Strongly connected components in topological order of the condensation
    (callees before callers: an edge between components points forward in
    the list), each component sorted. *)

val strata : t -> int Relation.Map.t
(** Stratum index per relation: the length of the longest SCC-condensation
    path ending at the relation's component.  Relations in one SCC share a
    stratum; an edge [R → S] with [R, S] in different components implies
    [strata R < strata S]. *)

val recursive : t -> Relation.Set.t
(** Relations in a non-trivial SCC, or carrying a self-loop. *)

val derivable : Tgd.t list -> from:Relation.Set.t -> Relation.Set.t
(** Least fixpoint of relation-level rule application: start from [from],
    fire a rule (adding its head relations) once all its body relations are
    in the set; empty-body rules always fire.  Sound over-approximation: a
    chase from any instance whose facts use only [from]-relations can only
    derive facts over [derivable ~from] relations. *)

val close : t -> Relation.Set.t -> Relation.Set.t
(** [close g from = derivable sigma ~from] against the rules [g] was built
    from, without re-walking the tgds — the form used per candidate by the
    rewrite prefilter. *)

val dead_rules : Tgd.t list -> int list
(** Indices of rules that can never fire from the critical instance over the
    extensional relations: some body relation lies outside
    [derivable ~from:(edb g)].  This adopts the closed Datalog convention
    that databases populate extensional relations only; an ontology chased
    over arbitrary instances may populate head relations directly, so the
    finding is a warning, not an error. *)

val underived : Tgd.t list -> Relation.Set.t
(** Intensional relations (occurring in some head) outside the derivable
    fixpoint from the extensional ones — e.g. an SCC with no external
    support. *)

val unconsumed : Tgd.t list -> Relation.Set.t
(** Relations occurring in some head but in no body: derived and then never
    used by the rules themselves.  Often fine (they are the "output"), hence
    only informational. *)
