(** Proof-carrying termination certificates.

    A certificate names its acyclicity notion {e and} carries the witness
    that makes the claim machine-checkable: the full dependency graph for
    weak acyclicity, the movement sets for joint acyclicity, the
    place-move closures for super-weak acyclicity, the saturated critical
    model for MSA, the terminal Skolem chase with its null-provenance map
    for MFA, and the stratum partition with per-stratum sub-certificates
    for stratified sets.

    {!to_string} renders the versioned [tgdcert v1] wire format; the
    independent checker ({!Certcheck}) consumes only that text plus the
    original rules, sharing no verification code with the producers. *)

open Tgd_syntax

type t =
  | Weak of { edges : (Relation.t * int * Relation.t * int * bool) list }
      (** The complete position dependency graph; the claim is that no
          special edge lies on a cycle. *)
  | Joint of { movement : (int * string * (Relation.t * int) list) list }
      (** [Mov(y)] for every existential [(rule, y)]; the claim is that
          the induced existential-variable graph is acyclic. *)
  | Super_weak of { moves : (int * (int * int * int) list) list }
      (** [Move(Σ, Out(σ_i))] per rule, each place as
          [(rule, head atom, pos)]; the claim is that the induced trigger
          relation is acyclic. *)
  | Model_summarising of { model : Fact.t list }
      (** The saturation of the summarised program over the critical
          instance; the claim is closure plus [__msa_D]-acyclicity. *)
  | Model_faithful of {
      model : Fact.t list;
      creation : (Constant.t * Critical_chase.creation) list;
    }
      (** The terminal critical-instance Skolem chase and each null's
          Skolem term; the claim is closure plus term acyclicity. *)
  | Stratified of { strata : int list list; subs : t list }
      (** A partition of the rules whose cross-stratum precedence is
          acyclic, with one sub-certificate per stratum. *)

val notion : t -> Termination.cert

val to_string : Tgd.t list -> t -> string
(** The [tgdcert v1] rendering: header [tgdcert v1], a
    [rules <n> <digest>] binding line, the notion payload, and a trailing
    [end]. *)

val to_file : string -> Tgd.t list -> t -> unit
