(** Typed, severity-ranked diagnostics emitted by the static analyzer.

    Every pass of {!Analyze} reports its findings as a [Diagnostic.t]; the
    driver sorts them most severe first and derives the process exit code
    from the worst severity present ({!exit_code}), which is what the CI
    lint gate keys on. *)

type severity =
  | Error    (** the rule set is broken: the finding defeats the rule's purpose *)
  | Warning  (** suspicious; the engines may behave worse than expected *)
  | Info     (** notable structure, no action required *)
  | Hint     (** an opportunity (e.g. a cheaper syntactic class is close) *)

type t = {
  severity : severity;
  code : string;  (** stable machine-readable identifier, e.g. ["dead-rule"] *)
  message : string;
  rule : int option;  (** 0-based index into the analyzed rule list *)
}

val make : ?rule:int -> severity -> code:string -> string -> t

val severity_rank : severity -> int
(** [0] for [Error] up to [3] for [Hint]; used for sorting. *)

val sort : t list -> t list

val exit_code : t list -> int
(** [2] when any [Error] is present, [1] when any [Warning] (and no error),
    [0] otherwise — the contract of [tgdtool analyze]. *)

val pp : t Fmt.t

val to_json : t -> string
(** One JSON object; strings are escaped. *)
