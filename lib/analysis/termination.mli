(** Chase-termination certificates.

    Two static, polynomial-time checks, each {e sufficient but not
    necessary} for termination of the (restricted and oblivious) chase on
    every instance:

    - {e weak acyclicity} (Fagin–Kolaitis–Miller–Popa): no special edge of
      the position dependency graph lies on a cycle;
    - {e joint acyclicity} (Krötzsch–Rudolph), strictly more permissive:
      the existential-variable dependency graph built from the per-variable
      movement sets [Mov(y)] is acyclic.

    [WA ⇒ JA]; {!certificate} reports the strongest familiar name (weak
    acyclicity when it holds, else joint acyclicity, else [None]).  A
    [None] certificate says nothing: the chase of a non-certified set may
    still terminate — termination itself is undecidable. *)

open Tgd_syntax

type position = Relation.t * int
(** [(R, i)] — the [i]-th position (0-based) of relation [R]. *)

type edge = { source : position; target : position; special : bool }

val dependency_graph : Tgd.t list -> edge list
(** Position dependency graph.  Regular edges propagate a frontier variable
    from a body position to a head position; special edges go from the body
    positions of each frontier variable to the positions of the existential
    variables of the same tgd. *)

type wa_witness = {
  cycle : position list;
  (** Positions [p₀ … p_k] with an edge [pᵢ → pᵢ₊₁] for each [i] and an
      edge [p_k → p₀] closing the cycle. *)
  special_edge : position * position;
  (** The special edge on the cycle ([p₀ → p₁] by construction). *)
}

val weak_acyclicity_witness : Tgd.t list -> wa_witness option
(** [None] when the set is weakly acyclic; otherwise a special-edge cycle
    demonstrating the failure. *)

val is_weakly_acyclic : Tgd.t list -> bool

type ja_witness = {
  variables : (int * Variable.t) list;
  (** Existential variables [(rule index, z₀) … (rule index, z_k)] forming a
      cycle in the existential-dependency graph: a null created for [zᵢ] can
      reach a frontier position of the rule of [zᵢ₊₁] (indices mod k+1). *)
}

val jointly_acyclic_witness : Tgd.t list -> ja_witness option
val is_jointly_acyclic : Tgd.t list -> bool

val movement : Tgd.t list -> rule:int -> Variable.t -> position list
(** [Mov(y)] for the existential variable [y] of rule [rule]: every position
    a null invented for [y] can reach, sorted.  Exposed for tests. *)

type cert =
  | Weakly_acyclic
  | Jointly_acyclic
  | Super_weakly_acyclic  (** Marnette's place-based SWA — see {!Placegraph}. *)
  | Model_summarising  (** MSA via critical-instance Datalog — {!Critical_chase}. *)
  | Model_faithful  (** MFA via critical-instance Skolem chase — {!Critical_chase}. *)
  | Stratified  (** Per-stratum certificates composed — {!Stratify}. *)

val certificate : Tgd.t list -> cert option
(** The strongest {e polynomial-time} certificate (weak, then joint
    acyclicity), or [None].  This is the cheap front of the lattice; the
    full classification including the place-based and chase-based notions
    is {!Lattice.classify}.  [Some _] implies the unbudgeted restricted
    chase terminates on every instance. *)

val cert_name : cert -> string

val cert_rank : cert -> int
(** Position in the lattice, [0] (weak acyclicity) to [5] (stratified);
    lower ranks are cheaper to establish and carry tighter bounds. *)

val pp_cert : cert Fmt.t
val pp_wa_witness : wa_witness Fmt.t
val pp_ja_witness : ja_witness Fmt.t
