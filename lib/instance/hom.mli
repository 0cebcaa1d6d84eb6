(** Homomorphism search.

    Two flavours are needed throughout the paper:

    - {e query homomorphisms}: functions [h] from the variables of a
      conjunction of atoms into an instance with [h(φ) ⊆ facts(I)] — used by
      satisfaction, triggers, diagrams and certain answers;
    - {e instance homomorphisms}: functions [h : dom(I) → dom(J)] with
      [h(facts(I)) ⊆ facts(J)] — used by local embeddability (where [h] must
      moreover be the identity on a given set) and isomorphism.

    The search is backtracking over the per-relation fact indexes with a
    bound-variables-first atom ordering. *)

open Tgd_syntax

val all_homs :
  ?partial:Binding.t -> Atom.t list -> Instance.t -> Binding.t Seq.t
(** All extensions of [partial] mapping every variable of the atoms such that
    each atom grounds to a fact of the instance.  Constants in atoms must
    match facts exactly.  Lazy; solutions may repeat bindings for variables
    already fixed by [partial]. *)

val find_hom : ?partial:Binding.t -> Atom.t list -> Instance.t -> Binding.t option
val exists_hom : ?partial:Binding.t -> Atom.t list -> Instance.t -> bool

val instance_homs :
  ?fixed:Constant.t Constant.Map.t ->
  ?injective:bool ->
  Instance.t ->
  Instance.t ->
  Constant.t Constant.Map.t Seq.t
(** [instance_homs ~fixed from into] — all maps [h] defined on [adom(from)]
    (extending [fixed]) with [h(facts(from)) ⊆ facts(into)].  With
    [~injective:true] only 1-1 maps are produced. *)

val find_instance_hom :
  ?fixed:Constant.t Constant.Map.t ->
  ?injective:bool ->
  Instance.t ->
  Instance.t ->
  Constant.t Constant.Map.t option

val embeds_fixing : Constant.Set.t -> Instance.t -> Instance.t -> bool
(** [embeds_fixing f j' i] — is there [h : adom(J') → adom(I)], identity on
    [f], with [h(facts(J')) ⊆ facts(I)]?  The embedding condition of the
    local-embeddability definitions (Section 3.3, 6.1, 7.1, 8.1). *)

val isomorphic : Instance.t -> Instance.t -> bool
(** [I ≃ J]: a bijective homomorphism [dom(I) → dom(J)] whose inverse is a
    homomorphism. *)

val hom_equivalent : Instance.t -> Instance.t -> bool
(** Homomorphic equivalence (maps both ways, not necessarily bijective). *)
