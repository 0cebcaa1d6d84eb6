(** Satisfaction of dependencies by instances (Section 2 and Section 4.1). *)

open Tgd_syntax

val tgd : Instance.t -> Tgd.t -> bool
(** [I ⊨ σ]: every homomorphism of the body extends to a homomorphism of the
    head. *)

val tgds : Instance.t -> Tgd.t list -> bool
(** [I ⊨ Σ]. *)

val egd : Instance.t -> Egd.t -> bool
val edd : Instance.t -> Edd.t -> bool
val dependencies : Instance.t -> Dependency.t list -> bool

val violating_hom : Instance.t -> Tgd.t -> Binding.t option
(** A body homomorphism witnessing [I ⊭ σ], if one exists. *)

val boolean_cq : Instance.t -> Atom.t list -> bool
(** [I ⊨ ∃x̄ φ(x̄)] — satisfaction of a Boolean conjunctive query, where
    constants in the atoms must match exactly. *)

val denial : Instance.t -> Denial.t -> bool
(** [I ⊨ δ] for a denial constraint: no homomorphism of the body exists. *)
