(** First-order variables.

    Variables are drawn from the countably infinite set [V] of the paper
    (Section 2).  They are represented by their name; two variables are equal
    iff their names are equal.  A fresh-name supply is provided for
    constructions that must invent variables (e.g. the [x_c] renaming used to
    build {!Diagram} formulas, or existential variables of enumerated
    candidate tgds). *)

type t

val make : string -> t
(** [make name] is the variable called [name].  Raises [Invalid_argument] on
    the empty string. *)

val name : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : t Fmt.t

val fresh : ?prefix:string -> unit -> t
(** [fresh ()] is a variable guaranteed distinct from every variable created
    so far by [fresh] in this process, with an optional name [prefix]
    (default ["v"]). *)

val indexed : string -> int -> t
(** [indexed p i] is the variable [p ^ string_of_int i]; the conventional
    spelling for enumerated candidate dependencies ([indexed "x" 0] etc.). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
