(** The termination-analysis lattice.

    Runs the acyclicity notions cheap-to-expensive — weak acyclicity,
    joint acyclicity, super-weak acyclicity, MSA, MFA, then per-stratum
    composition — and reports the first (hence strongest, tightest-bound)
    certificate that holds, as a {!Cert.t} carrying its machine-checkable
    witness.

    The chase-based notions (MSA, MFA) run under a deterministic budget
    derived from {!type:limits}; exhausting it yields [Unknown], never a
    wrong verdict. *)

open Tgd_syntax

type verdict =
  | Holds
  | Fails of string  (** with a human-readable refutation *)
  | Unknown of string  (** the check could not decide (budget, reserved names) *)

val holds : verdict -> bool

type limits = { rounds : int; facts : int; fuel : int }
(** Deterministic caps for the critical-instance chases — no wall clock,
    so verdicts are machine-independent. *)

val default_limits : limits

type profile = {
  wa : verdict;
  ja : verdict;
  swa : verdict;
  msa : verdict;
  mfa : verdict;
  stratification : verdict;
  strata : int list list;
  certified : (Termination.cert * Cert.t) option;
}

val classify :
  ?limits:limits -> Tgd.t list -> (Termination.cert * Cert.t) option
(** First notion that holds, in lattice order; [None] when nothing
    certifies.  [Some _] implies the restricted chase terminates on every
    instance. *)

val profile : ?limits:limits -> Tgd.t list -> profile
(** Every notion evaluated independently (no short-circuiting) — the
    [--explain] view. *)

val covers : profile -> Termination.cert -> bool
(** Cumulative lattice membership: level [c] is covered when some notion
    of rank [<= Termination.cert_rank c] holds.  By construction the
    chain [WA ⇒ JA ⇒ SWA ⇒ MSA ⇒ MFA] holds on [covers] even where the
    raw notions are incomparable. *)

val verdict_name : verdict -> string
val verdict_detail : verdict -> string option
val pp_profile : profile Fmt.t
