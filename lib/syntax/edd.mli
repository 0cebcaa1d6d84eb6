(** Existential disjunctive dependencies (Section 4.1).

    An edd is a sentence [∀x̄ (φ(x̄) → ⋁_{i=1}^{k} ψ_i(x̄_i))] where each
    disjunct [ψ_i] is either an equality [y = z] between body variables, or an
    existential conjunction [∃ȳ_i χ_i(x̄_i, ȳ_i)] whose frontier variables
    [x̄_i] occur in the body.  Eds generalize tgds (one existential disjunct)
    and egds (one equality disjunct). *)

type disjunct =
  | Eq of Variable.t * Variable.t
  | Exists of Atom.t list
      (** Variables of the conjunction not occurring in the edd body are the
          existentially quantified [ȳ_i]. *)

type t = private { body : Atom.t list; disjuncts : disjunct list }

val make : body:Atom.t list -> disjuncts:disjunct list -> t
(** Raises [Invalid_argument] when the disjunct list is empty, atoms carry
    constants, an equality mentions a variable outside the body, or an
    existential disjunct is an empty conjunction. *)

val body : t -> Atom.t list
val disjuncts : t -> disjunct list

val body_vars : t -> Variable.Set.t

val n_universal : t -> int
(** Number of body variables. *)

val m_existential : t -> int
(** Maximum number of existential variables over the disjuncts — the [m]
    bound of the class [E_{n,m}] (Section 4.2, Step 1). *)

val in_e_nm : n:int -> m:int -> t -> bool
(** Membership in [E_{n,m}]. *)

val of_tgd : Tgd.t -> t

val as_tgd : t -> Tgd.t option
(** [Some] when the edd has exactly one disjunct which is an existential
    conjunction (i.e. the edd is a tgd). *)

val as_egd : t -> Egd.t option
(** [Some] when the edd has exactly one disjunct which is an equality. *)

val disjunct_dependencies : t -> [ `Tgd of Tgd.t | `Egd of Egd.t ] list
(** The single-disjunct dependencies [σ_j = ∀x̄ (φ(x̄) → ψ_j(x̄_j))] used in
    Step 2 of the proof of Theorem 4.1. *)
