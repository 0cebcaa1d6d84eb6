(** The request handler behind [tgdtool serve].

    The protocol is line-delimited JSON ({!Json}): one request object per
    line, one terminal response object per request, served over stdio or
    sockets by [Tgd_net.Transport]'s session loop.  Requests are [{"id": …, "op": …, …}] where [op]
    is one of [classify], [chase], [entail], [rewrite], [analyze];
    responses echo the [id] and are either
    [{"id": …, "ok": true, "result": …}] or
    [{"id": …, "ok": false, "error": {"code": …, "message": …}}] with
    codes [bad_request], [overloaded], [fault], [internal],
    [request_too_large].

    {b Robustness contract.}  {!handle} answers every request with
    exactly one terminal response; no input — unknown op, bad fields,
    injected fault — makes it raise.  Transient failures (the
    [serve.request] {!Tgd_engine.Chaos} site, or engine runs truncated by
    an injected [Fault]) retry with exponential backoff up to [retries]
    attempts before answering [fault]. *)

type config = {
  rounds : int;       (** default chase round cap per request *)
  max_facts : int;    (** default fact cap per request *)
  timeout_s : float option;  (** per-request wall-clock deadline *)
  retries : int;      (** retry attempts after a transient fault *)
  backoff_base_s : float;    (** first retry delay; doubles per attempt *)
  queue_limit : int;
      (** in-flight requests beyond which new ones shed (the admission
          limit the serving front ends derive) *)
  max_line_bytes : int;
      (** request lines longer than this are answered with a typed
          [request_too_large] error instead of buffered without bound *)
  checkpoint_dir : string option;
      (** persist per-request chase progress as incremental delta chains
          under this directory ({!Tgd_chase.Chase.restricted_resumable}),
          keyed on the request content — a transient-fault retry (or a
          restarted server receiving the same request) resumes the chase
          mid-request instead of refiring from the input.  Terminal
          responses remove the chain; an unverifiable one is dropped and
          the request starts over (self-heal — a request checkpoint is
          recoverable state, not client data).  [None] (default): chases
          run in memory only. *)
  checkpoint_every : int;
      (** committed chase rounds per delta record (default 8); only
          meaningful with [checkpoint_dir] set *)
}

val default_config : config
(** 64 rounds, 20_000 facts, no deadline, 3 retries, 10 ms base backoff,
    queue limit 64, 1 MiB line cap, no checkpointing. *)

val request_id : Json.t -> Json.t
(** The request's [id] field, or [Null] — echoed in every response.
    Exposed for transports layered over {!handle}. *)

val error : Json.t -> string -> string -> Json.t
(** [error id code message] — a terminal error response in the protocol's
    shape.  Exposed for transports layered over {!handle}. *)

val analyze_memo : string Tgd_engine.Memo.t
(** The per-process [analyze] report cache, keyed by the canonical
    ontology digest ({!Tgd_engine.Memo.sigma_key}): analysis is pure in
    the rule set and the deep lattice notions may chase the critical
    instance, so repeated requests for the same ontology — under any
    syntactic presentation — hit.  Exposed for tests and cache
    introspection. *)

val handle : config -> Json.t -> Json.t
(** Process one parsed request to its terminal response.  Total: never
    raises, for any input (including injected faults — those either retry
    to success or surface as the [fault] error code). *)
