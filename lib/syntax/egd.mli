(** Equality-generating dependencies [∀x̄ (φ(x̄) → x_i = x_j)] (Section 2). *)

type t = private { body : Atom.t list; lhs : Variable.t; rhs : Variable.t }

val make : body:Atom.t list -> Variable.t -> Variable.t -> t
(** Raises [Invalid_argument] if the body is empty, carries constants, or the
    equated variables do not occur in it. *)

val body : t -> Atom.t list
val lhs : t -> Variable.t
val rhs : t -> Variable.t
val n_universal : t -> int

val is_trivial : t -> bool
(** [x = x]. *)

val compare : t -> t -> int
val pp : t Fmt.t
