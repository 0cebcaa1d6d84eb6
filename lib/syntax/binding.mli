(** Variable assignments [h : vars → C].

    These are the functions written [h : x̄ ∪ ȳ → dom(I)] throughout the
    paper — partial maps from variables to constants, extended during
    homomorphism search. *)

type t

val empty : t
val singleton : Variable.t -> Constant.t -> t
val of_list : (Variable.t * Constant.t) list -> t
val find : Variable.t -> t -> Constant.t option
val add : Variable.t -> Constant.t -> t -> t

val extend : Variable.t -> Constant.t -> t -> t option
(** [extend v c h] is [Some (add v c h)] when [v] is unbound or already bound
    to [c], and [None] on a conflicting binding. *)

val domain : t -> Variable.Set.t
val range : t -> Constant.Set.t
val cardinal : t -> int

val restrict : Variable.Set.t -> t -> t

val merge : t -> t -> t option
(** [merge h g] combines two assignments, [None] on conflict. *)

val ground_atom : t -> Atom.t -> Fact.t option
(** [Some] fact when every variable of the atom is bound. *)

val ground_atoms : t -> Atom.t list -> Fact.t list option

val is_injective : t -> bool

val pp : t Fmt.t
