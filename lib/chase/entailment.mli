(** Logical entailment between sets of tgds, via freezing and the chase
    (Section 9.2: "[Σ ⊨ σ] iff [Σ] and the database [D_φ], obtained by
    freezing [φ(x̄,ȳ)], entail the Boolean conjunctive query [q_φ] obtained
    from [∃z̄ ψ(x̄,z̄)] after freezing [x̄]" — citing Maier–Mendelzon–Sagiv).

    Entailment of arbitrary tgds is undecidable, so answers are three-valued:
    [Proved] and [Disproved] are definite; [Unknown] reports that the chase
    budget was exhausted before a verdict.  On weakly acyclic sets (in
    particular on full tgds) the restricted chase terminates and the answer
    is always definite given a sufficient budget. *)

open Tgd_syntax
open Tgd_instance

type answer =
  | Proved
  | Disproved
  | Unknown

val pp_answer : answer Fmt.t
val answer_to_string : answer -> string

val freeze : Atom.t list -> Binding.t
(** Assign a distinct frozen constant to every variable of the atoms. *)

val freeze_instance : Schema.t -> Atom.t list -> Binding.t * Instance.t
(** The database [D_φ] together with the freezing assignment. *)

val entails :
  ?naive:bool -> ?memo:bool -> ?budget:Chase.budget -> ?analyze:bool ->
  Tgd.t list -> Tgd.t -> answer
(** [entails sigma s] — does [Σ ⊨ σ]?

    With [memo] on (the default) answers are cached at two levels, both
    keyed up to variable renaming via {!Tgd_engine.Memo}: an answer cache on
    the canonical [(Σ, σ, budget)] triple, and below it a chase cache on
    [(Σ, canonical body of σ, budget)] — so candidate tgds sharing a body
    (the common shape in Algorithm 1/2 candidate sweeps) share one chase and
    only the final head-homomorphism check runs per candidate.  Hits and
    misses are counted in {!Tgd_engine.Stats.global}.

    [~naive:true] routes the underlying chases through the snapshot-rescan
    reference loop instead of the semi-naive engine.

    [analyze] (default [true]) is forwarded to {!Chase.restricted}: on rule
    sets carrying a termination certificate a round-capped chase is re-run
    uncapped, so answers that would have been [Unknown] only because of the
    round budget become definite.  The caches do not key on [analyze] — a
    promoted entry can only {e improve} an answer ([Unknown] → definite),
    never change a definite one, so sharing entries across both settings is
    sound. *)

val clear_memos : unit -> unit
(** Drop both entailment caches (e.g. between benchmark runs). *)

val memo_sizes : unit -> int * int
(** [(answer entries, cached chases)]. *)

val set_cache_limit : bytes:int option -> unit
(** Install (or remove) an overall byte ceiling across both entailment
    caches with LRU eviction ({!Tgd_engine.Memo.set_limit}): an eighth for
    the answer table, the rest for the chase table, whose entries dominate
    the footprint.  Changing the limit clears both tables. *)

val cache_counters : unit -> Tgd_engine.Memo.counters
(** Combined hit/miss/entry/byte/eviction counters of both caches — the
    warm-state numbers the serving layer reports. *)

val entails_set :
  ?naive:bool -> ?memo:bool -> ?budget:Chase.budget -> ?analyze:bool ->
  Tgd.t list -> Tgd.t list -> answer
(** Conjunction over the right-hand set: [Proved] if all are proved,
    [Disproved] if some is disproved, otherwise [Unknown]. *)

val equivalent :
  ?naive:bool -> ?memo:bool -> ?budget:Chase.budget -> ?analyze:bool ->
  Tgd.t list -> Tgd.t list -> answer
(** Logical equivalence [Σ ≡ Σ'] (mutual entailment). *)

val entails_egd : Tgd.t list -> Egd.t -> answer
(** A set of tgds entails an egd iff the egd is trivial on the frozen body —
    tgds cannot force equalities.  Definite. *)

val entailed_subset :
  ?naive:bool -> ?memo:bool -> ?budget:Chase.budget -> ?analyze:bool ->
  Tgd.t list -> Tgd.t list -> Tgd.t list * Tgd.t list
(** [entailed_subset sigma candidates] partitions the candidates into those
    provably entailed by [sigma] and the rest (disproved or unknown). *)
