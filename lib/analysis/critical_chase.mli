(** Critical-instance acyclicity: MFA and MSA (Cuenca Grau et al., JAIR
    2013).

    Both notions chase the {e critical instance} — one constant [∗], every
    relation holding every [∗]-tuple ({!Tgd_instance.Critical}) — which
    over-approximates every input database up to homomorphism, so
    termination there is termination everywhere:

    - {e model-faithful acyclicity} (MFA) runs the Skolem (semi-oblivious)
      chase itself ({!Tgd_engine.Seminaive} in [Skolem] mode) and rejects
      as soon as a {e cyclic Skolem term} appears — a null whose creating
      (rule, existential) pair already occurs in its own ancestry;
    - {e model-summarising acyclicity} (MSA) approximates each Skolem term
      by a single summarising constant, yielding a {e full} program whose
      saturation is finite; the set is MSA when the derived
      [__msa_D]-graph (frontier value → summarising constant) is acyclic.

    [MSA ⇒ MFA], and both subsume joint and super-weak acyclicity; a
    holding verdict implies the Skolem — hence also the restricted —
    chase terminates on every instance.  Both checks can be exponential,
    so they run under a {!Tgd_engine.Budget} (deterministic round / fact /
    fuel caps, no wall clock) and report [Unknown] on exhaustion. *)

open Tgd_syntax

type creation = {
  c_rule : int;  (** index of the rule whose existential invented the null *)
  c_exvar : string;  (** name of that existential variable *)
  c_args : Constant.t list;
      (** frontier values at invention time, sorted by variable name — the
          arguments of the corresponding Skolem term *)
}

type mfa_witness = {
  mfa_model : Fact.t list;
      (** the terminal critical-instance Skolem chase *)
  mfa_creation : (Constant.t * creation) list;
      (** every invented null with its Skolem term, sorted *)
  mfa_digest : string;  (** hex digest of the canonical trace *)
}

type mfa_refutation = {
  mfa_cycle_rule : int;
  mfa_cycle_exvar : string;
  mfa_depth : int;
}

type 'w verdict =
  | Holds of 'w
  | Fails of string  (** with a human-readable refutation *)
  | Unknown of string  (** budget exhausted (or reserved-name clash) *)

val mfa : ?budget:Tgd_engine.Budget.t -> Tgd.t list -> mfa_witness verdict
(** [budget] (here and in {!msa}) defaults to 128 rounds, 20k facts and
    60k fuel with no deadline, so verdicts are machine-independent. *)

type msa_witness = {
  msa_model : Fact.t list;
      (** the saturation of the summarised program over the critical
          instance, including the [__msa_*] bookkeeping facts *)
  msa_digest : string;
}

val msa : ?budget:Tgd_engine.Budget.t -> Tgd.t list -> msa_witness verdict
