(** Triggers — body homomorphisms of a tgd into an instance. *)

open Tgd_syntax
open Tgd_instance

type t = { tgd : Tgd.t; hom : Binding.t }

val all : Tgd.t -> Instance.t -> t Seq.t
(** Every homomorphism of the body into the instance. *)

val active : Tgd.t -> Instance.t -> t Seq.t
(** Triggers with no extension satisfying the head ("active" in the
    restricted-chase sense). *)

val is_active : t -> Instance.t -> bool

val key : t -> string
(** Stable identification of a trigger (tgd + restriction of the hom to the
    body variables), for the oblivious chase's fired-set. *)
