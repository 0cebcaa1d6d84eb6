(** The central syntactic classes of tgds (Section 2) and their classifier.

    [LTGD ⊊ GTGD ⊊ FGTGD ≠ FTGD]. *)

type cls =
  | Full            (** no existentially quantified variables *)
  | Linear          (** at most one body atom *)
  | Guarded         (** empty body, or a body atom covering all universals *)
  | Frontier_guarded
      (** empty body, or a body atom covering the frontier *)

val is_full : Tgd.t -> bool
val is_linear : Tgd.t -> bool
val is_guarded : Tgd.t -> bool
val is_frontier_guarded : Tgd.t -> bool

val all_in_class : cls -> Tgd.t list -> bool

val guard : Tgd.t -> Atom.t option
(** A body atom containing every universally quantified variable, if any.
    For an empty body the tgd is guarded with no guard atom, and the result
    is [None]. *)

val frontier_guard : Tgd.t -> Atom.t option
(** A body atom containing every frontier variable, if any. *)

val classify : Tgd.t -> cls list
(** Every class the tgd belongs to, most restrictive first.  The empty list
    means the tgd is an unrestricted member of TGD only. *)

val cls_name : cls -> string
val pp_cls : cls Fmt.t
