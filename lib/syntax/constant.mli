(** Constants (domain elements).

    The paper fixes a countably infinite set [C] of constants and lets
    instance domains be arbitrary subsets of [C].  Our representation makes
    the constructions of the paper first-class:

    - [Named] constants are the ordinary ones appearing in user instances;
    - [Indexed] constants supply canonical countable families (used by
      critical instances and bounded-universe enumeration);
    - [Pair] constants are the elements of direct products
      (Definition of [I ⊗ J], Section 3.2), so that the product of two
      instances is itself an instance over [C];
    - [Null] constants are the labelled nulls invented by the chase; they are
      ordinary constants from the model-theoretic point of view, but carrying
      them separately lets tooling display and test chase provenance. *)

type t =
  | Named of string
  | Indexed of int
  | Pair of t * t
  | Null of int

val named : string -> t
val indexed : int -> t
val pair : t -> t -> t
val null : int -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val is_null : t -> bool
(** [is_null c] is [true] iff [c] is a labelled null or contains one (a
    product element is "null" if either component is). *)

val first : t -> t
(** [first (Pair (a, b))] is [a].  Raises [Invalid_argument] on non-pairs.
    This is the homomorphism [h_I] of Lemma 3.4. *)

val second : t -> t
(** [second (Pair (a, b))] is [b] ([h_J] of Lemma 3.4). *)

val pp : t Fmt.t
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : t list -> Set.t
