(** Terms: variables or constants.

    Dependencies in the paper are constant-free, so tgd/edd atoms only carry
    variables; but the machinery of the proofs manipulates mixed atoms (the
    relative diagram uses constants from [dom(K)] together with the
    [⋆_1, …, ⋆_ℓ] variables), so atoms are built over terms. *)

type t =
  | Var of Variable.t
  | Const of Constant.t

val var : Variable.t -> t
val const : Constant.t -> t
val is_const : t -> bool

val compare : t -> t -> int

val pp : t Fmt.t
