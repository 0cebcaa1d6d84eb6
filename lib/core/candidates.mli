(** Enumeration of candidate tgds — the search spaces of Algorithms 1 and 2.

    Algorithm 1 (G-to-L) collects {e all} linear tgds over S in
    [LTGD_{n,m}] entailed by the input; Algorithm 2 (FG-to-G) does the same
    with [GTGD_{n,m}].  We enumerate those spaces up to variable renaming
    (the paper's "finite up to logical equivalence"), with configurable caps
    on the number of atoms; the [*_complete] predicates report whether the
    caps were binding, so callers can qualify a negative rewriting answer.

    {!linear} builds its representatives canonical: a one-atom body drawn
    from a restricted growth string is its own canonical form, so only the
    naming of existentials within one body is deduplicated, and nothing is
    canonicalized for a head without existentials.  Its order is part of
    its contract — the rewrite checkpoint cursor and greedy minimization's
    stable sort both read it.  {!guarded} and {!generic} still
    canonicalize and deduplicate every candidate ({!Canonical.tgd}):
    their multi-atom bodies need the permutation search.

    Tautological candidates (head already satisfied by the frozen body) are
    skipped unless [keep_tautologies]: they are entailed by every set and
    never contribute to [Σ' ⊨ Σ].  {!linear} decides this against its one
    body atom directly. *)

open Tgd_syntax

type caps = {
  max_body_atoms : int;
      (** for guarded bodies: guard + side atoms; for generic bodies: total
          atoms.  Ignored by the linear enumerator (1 by definition). *)
  max_head_atoms : int;
  keep_tautologies : bool;
}

val default_caps : caps
(** [{ max_body_atoms = 2; max_head_atoms = 2; keep_tautologies = false }] *)

val head_conjunctions :
  caps -> Schema.t -> Variable.t list -> m:int -> Atom.t list Seq.t
(** Non-empty sets of atoms over the given universal variables plus at most
    [m] canonical existential variables, each existential actually used. *)

val linear : ?caps:caps -> Schema.t -> n:int -> m:int -> Tgd.t Seq.t
(** [LTGD_{n,m}] over the schema, one canonical representative per
    renaming class.  Bodies are single atoms whose variable patterns range
    over restricted growth strings with at most [n] blocks; bodiless tgds
    (when [m ≥ 1]) come first, then each body with its heads in
    {!head_conjunctions} order.  The sequence equals the one of building
    every tgd, canonicalizing it and keeping first occurrences. *)

val guarded : ?caps:caps -> Schema.t -> n:int -> m:int -> Tgd.t Seq.t
(** [GTGD_{n,m}]: a guard atom pattern plus up to [max_body_atoms - 1] side
    atoms over the guard's variables.  (Bodiless guarded tgds
    [→ ∃z̄ ψ(z̄)] are included.) *)

val full : ?caps:caps -> Schema.t -> n:int -> Tgd.t Seq.t
(** [FTGD_{n,0}-style] candidates with generic bodies (up to
    [max_body_atoms]) and existential-free heads. *)

val generic : ?caps:caps -> Schema.t -> n:int -> m:int -> Tgd.t Seq.t
(** Arbitrary [TGD_{n,m}] candidates with generic bodies — the space
    [Σ^∃ ⊆ E_{n,m}] of the Theorem 4.1 synthesis. *)

val frontier_guarded : ?caps:caps -> Schema.t -> n:int -> m:int -> Tgd.t Seq.t
(** {!generic} filtered to frontier-guarded tgds. *)

val linear_complete : caps -> Schema.t -> n:int -> m:int -> bool
(** Is the cap non-binding, i.e. does [max_head_atoms] reach the total
    number of distinct head atoms? *)

val guarded_complete : caps -> Schema.t -> n:int -> m:int -> bool

val count : 'a Seq.t -> int

val generic_complete : caps -> Schema.t -> n:int -> m:int -> bool
(** Caps non-binding for the generic [TGD_{n,m}] enumeration: the body cap
    reaches every atom over [n] variables and the head cap every atom over
    [n + m]. *)
