(** Mixed dependencies — the sets [Σ^{∃,=}] of tgds and egds produced by
    Step 2 of the proof of Theorem 4.1. *)

type t =
  | Tgd of Tgd.t
  | Egd of Egd.t

val tgd : Tgd.t -> t
val egd : Egd.t -> t
val tgds : t list -> Tgd.t list
val egds : t list -> Egd.t list
