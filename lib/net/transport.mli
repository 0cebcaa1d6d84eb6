(** The one NDJSON serve loop, over stdio or a listening socket.

    Every surface speaks the same protocol: one request object per line,
    one terminal response per request, on that session, in order.  Lines
    over the [max_line_bytes] of the dispatcher's server config are
    answered [request_too_large]; lines that are not JSON are answered
    [bad_request] with an ["invalid JSON: …"] message.  Everything else
    goes to the surface's per-session {!handler}.

    Socket sessions are lightweight systhreads; engine work runs on the
    dispatcher's shared domain pool.  Connections beyond
    [max_connections] receive one [overloaded] line and are closed; idle
    connections are closed after [idle_timeout_s].

    {b Drain.} {!drain} (or SIGINT/SIGTERM under {!run}) stops
    accepting, wakes blocked socket readers, and lets every line already
    read finish writing its response; lines that arrive after the drain
    began are not read.  Sessions still busy after [drain_grace_s] are
    cut.  A stdio session blocked on a still-open stdin is not waited
    for.  Only then is the worker pool shut down. *)

type addr = Unix_sock of string | Tcp of string * int

type config = {
  dispatcher : Dispatcher.config;
  max_connections : int;        (** concurrent connections served *)
  idle_timeout_s : float option;(** close connections quiet this long *)
  drain_grace_s : float;        (** drain patience before cutting *)
}

val default_config : config
(** Dispatcher defaults, 64 connections, no idle timeout, 5 s grace. *)

(** {2 Session-end classification}

    Why sessions ended, as the transport saw them.  [EPIPE]/[ECONNRESET]
    map to {!Peer_reset}, the [SO_RCVTIMEO] idle timeout to
    {!Idle_timeout}, orderly end-of-stream to {!Client_closed}, a
    server-initiated drain to {!Drained}; anything else keeps its
    message in {!Session_error}.  Counted per class and surfaced under
    ["sessions"] in the dispatcher's [stats] op. *)

type session_end =
  | Client_closed
  | Peer_reset
  | Idle_timeout
  | Drained
  | Session_error of string

val session_end_name : session_end -> string
val classify_session_exn : exn -> session_end

type session_counters

val fresh_session_counters : unit -> session_counters
val session_counters_json : session_counters -> Tgd_serve.Json.t

val idle_timeouts : session_counters -> int
val peer_resets : session_counters -> int

(** {2 Handlers} *)

type session = {
  respond : string -> Tgd_serve.Json.t -> string;
      (** [respond line req]: the response line (without newline) for a
          request, given both its raw trimmed [line] and the parsed
          [req].  Must not raise. *)
  close : unit -> unit;
      (** Release per-session resources once the session has ended. *)
}

type handler = unit -> session
(** Called once per session, on the session's thread.  The fleet router
    keeps its shard connections per session and forwards [line]
    verbatim. *)

(** {2 Lifecycle} *)

type t

val start : config -> addr -> t
(** Bind, create the worker pool ({!Dispatcher.create}), and serve
    {!Dispatcher.handle} sessions in background threads.  A pre-existing Unix
    socket path is unlinked first.
    @raise Unix.Unix_error if the address cannot be bound. *)

val stdio : config -> in_channel -> out_channel -> t
(** One {!Dispatcher.handle} session over a pair of channels ([tgdtool serve]
    without [--socket]), with its own worker pool.  The lifecycle ends
    when the input reaches end-of-file, or on drain.  The channels stay
    the caller's: they are flushed, never closed. *)

val listen :
  ?session_ends:session_counters -> config -> addr -> handler -> t
(** Bind and serve [handler] sessions.  Creates no worker pool and spawns
    no domain, so a process that forks later may listen.  Session ends
    are counted into [session_ends] (default: fresh counters). *)

val drain : t -> unit
(** Begin graceful shutdown; returns immediately. *)

val wait : t -> int
(** Block until the lifecycle has ended (stdio at end-of-input) or fully
    drained: accept loop joined, socket sessions closed, pool shut down.
    Returns the process exit code (0). *)

val stop : t -> int
(** [drain] then [wait]. *)

val run : ?signals:bool -> t -> int
(** Optionally (default) install SIGINT/SIGTERM drain handlers, then
    {!wait}. *)

val serve : ?signals:bool -> config -> addr -> int
(** [run (start config addr)]: the blocking entry point behind
    [tgdtool serve --socket]. *)

val session_ends : t -> session_counters
(** How this lifecycle's sessions ended so far. *)
