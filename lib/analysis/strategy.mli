(** Analysis-driven engine strategy.

    The analyzer's verdicts translate into concrete engine behavior:

    - a set of {e full} tgds is plain Datalog — saturate, no nulls, no
      termination question;
    - a certified-terminating set may chase to completion: round budgets
      are advisory and a [Truncated Rounds] outcome is promoted by
      re-running without the round cap ({!Chase.restricted} with
      [~analyze:true] does this automatically);
    - anything else chases under the caller's budget and keeps the typed
      [Truncated] outcome. *)

open Tgd_syntax

type engine =
  | Datalog_saturation   (** all rules full: finite saturation, no nulls *)
  | Chase_to_completion  (** termination certificate: run the chase out *)
  | Budgeted_chase       (** no certificate: trust the budget, keep [Truncated] *)

type t = {
  engine : engine;
  cert : Termination.cert option;
  common_classes : Tgd_class.cls list;
      (** classes every rule belongs to, most restrictive first *)
}

val decide : ?deep:bool -> Tgd.t list -> t
(** Strategy for the rule set.  The default consults only the
    polynomial front of the termination lattice (weak, joint, super-weak
    acyclicity) — cheap enough for per-request admission and
    per-candidate screening.  [~deep:true] runs the full
    {!Lattice.classify}, including the budgeted critical-instance
    notions (MSA, MFA) and stratified composition — deterministic, but
    potentially a chase; reserve it for cached or offline paths. *)

val may_promote : t -> bool
(** May a round-capped [Truncated] be promoted to a definite result by
    re-running uncapped?  True exactly for {!Datalog_saturation} and
    {!Chase_to_completion}. *)

type cost =
  | Cheap      (** no chase at all (static ops like classify/analyze) *)
  | Moderate   (** chase work bounded by a termination certificate *)
  | Expensive  (** uncertified: may burn its entire budget *)
(** Predicted per-request cost class, for admission control in the
    serving layer. *)

val predicted_cost : t -> cost
(** [Moderate] for {!Datalog_saturation} and {!Chase_to_completion} (the
    chase is provably finite), [Expensive] for {!Budgeted_chase}.  Never
    [Cheap]: a strategy is only consulted for requests that chase. *)

val cost_weight : cost -> int
(** Relative per-item weight of a cost class: [1] for [Cheap]/[Moderate],
    [64] for [Expensive].  The common currency between the screening
    chunker here and the serving layer's batch chunker. *)

val chunk_weight_target : int
(** Weight a pool chunk should carry — enough to amortize one queue
    claim into noise.  [chunk ≈ chunk_weight_target / per-item weight]. *)

val screen_chunk : t -> jobs:int -> n:int -> int
(** Cost-sized chunk for a screening sweep of [n] candidates on a
    [jobs]-worker pool: certified items pack many per queue claim (to
    amortize dispatch), uncertified items get small chunks (dynamic
    claiming balances their high variance), and the result never drops
    below ~4 chunks per worker so work-stealing has something to steal.
    Always ≥ 1; pass it as [?chunk] to the {!Pool} batch operations. *)

val sweep_cost : t -> cap:float -> candidates:float -> cost
(** Admission cost of a candidate sweep: the candidate count weighted by
    [cost_weight (predicted_cost t)] (calibrated so [cap] bounds an
    {e uncertified} space).
    A certified sweep admits a 64× larger space before turning
    [Expensive], keeping large certified workloads on the warm path;
    otherwise the result is {!predicted_cost} (at least [Moderate]). *)

val max_cost : cost -> cost -> cost
val cost_name : cost -> string

val engine_name : engine -> string
val pp : t Fmt.t
