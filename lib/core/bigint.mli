(** Minimal arbitrary-precision non-negative integers.

    The counting formulas of Section 9.2 involve towers like
    [2^(|S|·(n+m)^{ar(S)})] that overflow native integers immediately; the
    sealed build environment has no zarith, so this small bignum (base 10^9
    magnitude arrays, add/mul/pow only) backs {!Counting}. *)

type t

val zero : t
val two : t
val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val add : t -> t -> t
val mul : t -> t -> t
val pow : t -> int -> t
(** Raises [Invalid_argument] on negative exponent; [pow x 0 = one]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_int_opt : t -> int option
(** [Some] when the value fits in a native [int]. *)

val to_float : t -> float
(** Approximate; [infinity] when out of float range. *)

val to_string : t -> string
val pp : t Fmt.t

val digits : t -> int
(** Number of decimal digits. *)
