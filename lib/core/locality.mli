(** The locality properties — the paper's main conceptual contribution
    (Definition 3.5) and its three refinements: linear (Definition 6.1),
    guarded (Definition 7.1) and frontier-guarded (Definition 8.1) locality.

    Local embeddability of [O] in [I] asks, for every small "test
    configuration" inside [I] (a subinstance [K], plus a fixed set [F] in the
    frontier-guarded case), for a witness [J ∈ O] containing [K] all of whose
    [m]-neighbourhoods fold back into [I] fixing [F].  The witness is an
    existential over an infinite class, so the checker searches witnesses by
    strategy: the chase of [K] under the axioms (the canonical member
    containing [K]) and/or exhaustive enumeration of small members.  A
    configuration with a found witness is definitively embeddable; exhausting
    the strategy yields a definite [`No] only in the sense "no witness within
    the strategy" — hence the one-sided contracts documented below. *)

open Tgd_syntax
open Tgd_instance

type variant =
  | Plain
  | Linear
  | Guarded
  | Frontier_guarded

val variant_name : variant -> string

type strategy = {
  use_chase : Tgd_chase.Chase.budget option;
      (** try [chase(K, Σ)] as the witness (axiomatic ontologies) *)
  enumerate_extra : int option;
      (** also search members over [adom(K)] plus at most this many fresh
          elements *)
}

type configuration = { fixed : Constant.Set.t; sub : Instance.t }
(** A test configuration: the pair [(F, K)].  For the plain, linear and
    guarded variants [F = adom(K)]. *)

val configurations : variant -> n:int -> Instance.t -> configuration Seq.t
(** The configurations the respective definition quantifies over, enumerated
    up to fact-equivalence.  For [Frontier_guarded], sets [F] of size at most
    [n] are considered (the proof of Lemma 8.3 only exercises [|F| ≤ n]). *)

val witness_ok :
  m:int -> fixed:Constant.Set.t -> witness:Instance.t -> target:Instance.t ->
  bool
(** Does the witness [J] satisfy the neighbourhood condition: every [J'] in
    the [m]-neighbourhood of [F] in [J] maps into the target fixing [F]? *)

type embeddability =
  | Embeddable
      (** every configuration has a verified witness — definitive *)
  | No_witness of configuration
      (** some configuration got no witness within the strategy *)

val locally_embeddable :
  ?strategy:strategy -> ?jobs:int -> variant -> n:int -> m:int -> Ontology.t ->
  Instance.t -> embeddability
(** [jobs > 1] checks configurations on a domain pool; the result is the
    same configuration the sequential scan would report (first in
    enumeration order), but the configuration sequence is forced up front,
    so prefer [jobs = 1] (the default, pool-free) when the enumeration is
    the expensive part. *)

type locality_verdict =
  | Local_on_tests
      (** no counterexample among the tested instances *)
  | Not_local of Instance.t
      (** a tested instance in which [O] is (definitively) locally
          embeddable but which is not a member — a genuine witness that [O]
          is not (n,m)-local in the given variant *)

val check_local_on :
  ?strategy:strategy -> ?jobs:int -> ?budget:Tgd_engine.Budget.t ->
  variant -> n:int -> m:int -> Ontology.t ->
  Instance.t list -> locality_verdict Tgd_engine.Budget.outcome
(** [jobs > 1] screens test instances on a domain pool, one instance per
    task (the per-instance embeddability check stays sequential); the
    verdict — and which counterexample is reported — is identical to the
    sequential scan's.

    The scan polls [budget] (default {!Tgd_engine.Budget.unlimited}, which
    never trips) between test instances.  A counterexample found before the
    trip is [Complete (Not_local i)] — definitive regardless of the budget;
    a tripped scan with no hit is [Truncated] with [Local_on_tests] as the
    sound partial verdict over the instances actually tested. *)

val check_local_up_to :
  ?strategy:strategy -> ?jobs:int -> ?budget:Tgd_engine.Budget.t ->
  variant -> n:int -> m:int -> Ontology.t ->
  int -> locality_verdict Tgd_engine.Budget.outcome
(** All instances with canonical domains of size [≤ k] as tests.  [jobs] and
    [budget] as in {!check_local_on}, but note [jobs > 1] forces the whole
    instance enumeration up front. *)
