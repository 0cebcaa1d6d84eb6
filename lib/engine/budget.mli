(** Unified resource governance for the chase and the Section 9 sweeps.

    One [Budget.t] carries every limit the engine honours: the classic
    round and fact caps, an optional fuel tank (total trigger firings), an
    optional wall-clock deadline, an approximate memory ceiling, and a
    cooperative cancellation token shared with {!Pool} workers.  Limits are
    checked cooperatively — at chase-round, trigger-batch, and pool-chunk
    granularity — so a tripped budget always leaves a usable prefix of the
    work behind, surfaced as the typed {!type:outcome}.

    {b Determinism.}  Round, fact and fuel caps are functions of the work
    itself, so results truncated by them are reproducible.  Deadline,
    memory and external cancellation depend on the wall clock and the heap;
    runs truncated by them still return a prefix of the same deterministic
    sequence, but {e where} the prefix ends varies run to run.  Caches key
    on the deterministic caps only and store only reproducible results —
    see {!Memo} users. *)

type exhaustion =
  | Rounds           (** round cap reached with active triggers left *)
  | Facts            (** fact cap exceeded *)
  | Fuel             (** fuel tank (total firings) drained *)
  | Deadline         (** wall-clock deadline passed *)
  | Memory           (** approximate heap ceiling exceeded *)
  | Cancelled        (** external cancellation (no more specific reason) *)
  | Fault of string  (** injected fault ({!Chaos}) surfaced at this site *)

val pp_exhaustion : exhaustion Fmt.t
val exhaustion_to_string : exhaustion -> string

(** Cooperative cancellation tokens.  A token is a write-once cell shared
    between the run that owns the budget and any {!Pool} workers serving
    it: the first [cancel] wins, later ones are ignored, and every holder
    observes the flip on its next poll. *)
module Cancel : sig
  type t

  val create : unit -> t

  val cancel : ?reason:exhaustion -> t -> unit
  (** Trip the token.  The default reason is [Cancelled]. *)

  val is_cancelled : t -> bool
  val reason : t -> exhaustion option
end

type t = private {
  max_rounds : int;
  max_facts : int;
  fuel : int Atomic.t option;       (** remaining firings, shared by copies *)
  deadline : float option;          (** absolute [Unix.gettimeofday] time *)
  max_memory_words : int option;    (** against [Gc.quick_stat].heap_words *)
  cancel : Cancel.t;
}
(** The record is private so a budget cannot be rebuilt with [{ b with … }]
    — that would silently share (and possibly poison) [b]'s token and fuel
    tank.  Use {!make} for a fresh budget, {!with_rounds} to retune the
    round cap of an existing one {e keeping} its token, fuel and deadline
    (what {!Theory}'s one-round inner steps need). *)

val make :
  ?rounds:int ->
  ?facts:int ->
  ?fuel:int ->
  ?timeout_s:float ->
  ?memory_words:int ->
  ?cancel:Cancel.t ->
  unit ->
  t
(** Fresh budget.  Defaults: [rounds = 64], [facts = 20_000], no fuel, no
    deadline, no memory ceiling, fresh token.  [timeout_s] is relative to
    the clock at creation time. *)

val limits : rounds:int -> facts:int -> t
(** Caps-only budget ([make ~rounds ~facts ()]) — the PR-2-era knobs. *)

val default : t
(** [limits ~rounds:64 ~facts:20_000]. *)

val unlimited : t
(** No cap trips ([max_int] rounds/facts, nothing else armed). *)

val with_rounds : t -> int -> t
(** Same token, fuel, deadline and ceiling; new round cap. *)

val token : t -> Cancel.t

val check : t -> exhaustion option
(** Full cooperative check: cancellation, then deadline, then memory, then
    an empty fuel tank.  A deadline/memory/fuel trip also cancels the
    embedded token, so pool workers polling {!cancelled} stand down
    promptly.  Does {e not} look at rounds/facts — those are counted by the
    loops that own them. *)

val cancelled : t -> exhaustion option
(** Cheap poll of the token only (one atomic read) — no clock, no [Gc].
    Safe at per-item granularity in hot loops. *)

val spend_fuel : t -> int -> exhaustion option
(** Draw [n] units from the fuel tank.  [Some Fuel] (and a token trip) when
    the tank runs dry; [None] when no tank is armed. *)

val key : t -> string
(** Cache-key fragment covering the deterministic caps only ([r64/f20000]).
    Sound for caches that store only reproducible results: deadline, fuel
    and memory can only make a run return {e less} than the caps allow. *)

type 'a outcome =
  | Complete of 'a
  | Truncated of {
      reason : exhaustion;
      partial : 'a;       (** everything finished before the trip *)
      progress : Stats.t; (** work performed up to the trip *)
    }

val value : 'a outcome -> 'a
(** The payload, complete or partial. *)

val map : ('a -> 'b) -> 'a outcome -> 'b outcome
