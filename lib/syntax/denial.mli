(** Denial constraints [∀x̄ (φ(x̄) → ⊥)].

    The paper's concluding remarks (Section 10) name ontologies specified by
    tgds, egds, and denial constraints as the next target of the
    characterization program; this module supplies the syntax so that
    {!Tgd_chase.Theory} can chase and check mixed ontologies. *)

type t = private { body : Atom.t list }

val make : Atom.t list -> t
(** Raises [Invalid_argument] when the body is empty or carries constants. *)

val body : t -> Atom.t list

val pp : t Fmt.t
