(** Relation symbols (predicates) with their arity. *)

type t = private { name : string; arity : int }

val make : string -> int -> t
(** [make name arity] is the relation symbol [name/arity].  Raises
    [Invalid_argument] when [name] is empty or [arity < 0].  (The paper
    requires positive arity for schema relations; we additionally allow
    arity 0 because the Appendix F reductions use a 0-ary [Aux] predicate.) *)

val name : t -> string
val arity : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : t Fmt.t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
