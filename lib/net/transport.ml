(* The one NDJSON serve loop, and the listener lifecycle around it.

   Every serving surface runs {!session}: stdin/stdout under
   [tgdtool serve], each connection of a socket server, and each client
   connection of the fleet router.  The loop reads a bounded line
   ({!Tgd_serve.Json.read_line_bounded}: oversized lines are consumed
   and answered with [request_too_large], CRLF and trailing partial lines
   are tolerated), parses it, hands it to the surface's per-session
   handler, writes exactly one response line, and classifies how the
   session ended.  So framing, error texts and drain behaviour exist once.

   Concurrency model: the engine's parallelism lives in the dispatcher's
   domain pool; sessions only need to block on IO, so each session is a
   systhread ([threads.posix]) — blocking reads release the runtime lock,
   and a thousand mostly-idle connections cost a stack each, not a domain
   each.  The accept loop is itself a thread that polls a [select] with a
   short timeout so it can notice the draining flag without a wakeup
   pipe.  Idle connections are bounded with [SO_RCVTIMEO]; the timeout
   surfaces as a [Sys_error] from the channel read and closes the session.

   The listener never creates a {!Dispatcher}: the socket and stdio entry
   points do.  The fleet router listens with its own handler and must
   never spawn a domain, because its shards start by [fork].

   Graceful drain (SIGINT/SIGTERM or {!drain}): the accept loop exits,
   the listener closes, and every socket session is woken with
   [shutdown SHUTDOWN_RECEIVE] — a blocked reader sees end-of-file, a
   session mid-request finishes writing its response first.  A line read
   after the drain began is not answered.  Sessions still busy after
   [drain_grace_s] are cut with [SHUTDOWN_ALL].  A stdio session blocked
   on a still-open stdin cannot be woken and is not waited for.  Only then
   is the worker pool shut down, so no admitted request loses its
   worker. *)

module Json = Tgd_serve.Json
module Server = Tgd_serve.Server

type addr = Unix_sock of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock path -> Fmt.pf ppf "unix:%s" path
  | Tcp (host, port) -> Fmt.pf ppf "tcp:%s:%d" host port

type config = {
  dispatcher : Dispatcher.config;
  max_connections : int;
  idle_timeout_s : float option;
  drain_grace_s : float;
}

let default_config =
  { dispatcher = Dispatcher.default_config;
    max_connections = 64;
    idle_timeout_s = None;
    drain_grace_s = 5.0
  }

(* Why a session ended, as the transport saw it.  [EPIPE]/[ECONNRESET]
   and the [SO_RCVTIMEO] idle timeout used to vanish into one generic
   channel-failure bucket; typing them lets the [stats] op answer "are
   clients going away cleanly, getting reset, or rotting idle?" — three
   different operational problems. *)
type session_end =
  | Client_closed  (* orderly end-of-stream from the peer *)
  | Peer_reset     (* EPIPE / ECONNRESET / ESHUTDOWN mid-session *)
  | Idle_timeout   (* SO_RCVTIMEO expired on a quiet connection *)
  | Drained        (* server-initiated drain ended the session *)
  | Session_error of string  (* anything else the channel surfaced *)

let session_end_name = function
  | Client_closed -> "client_closed"
  | Peer_reset -> "peer_reset"
  | Idle_timeout -> "idle_timeout"
  | Drained -> "drained"
  | Session_error _ -> "error"

(* Channel reads wrap the raw errno two ways: [Unix_error] from
   unbuffered paths, [Sys_error strerror-text] once stdlib buffering is
   involved (and EAGAIN from a read timeout as [Sys_blocked_io]).  The
   string match is regrettable but the only handle [Sys_error] offers. *)
let classify_session_exn exn =
  let msg_has msg sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg
      && (String.sub msg i n = sub || go (i + 1))
    in
    go 0
  in
  match exn with
  | End_of_file -> Client_closed
  | Sys_blocked_io -> Idle_timeout
  | Unix.Unix_error ((EPIPE | ECONNRESET | ESHUTDOWN | ENOTCONN), _, _) ->
    Peer_reset
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) -> Idle_timeout
  | Sys_error msg when msg_has msg "Broken pipe" || msg_has msg "Connection reset"
    -> Peer_reset
  | Sys_error msg
    when msg_has msg "Resource temporarily unavailable"
         || msg_has msg "timed out" || msg_has msg "would block" ->
    Idle_timeout
  | Sys_error msg -> Session_error msg
  | Unix.Unix_error (e, _, _) -> Session_error (Unix.error_message e)
  | exn -> Session_error (Printexc.to_string exn)

type session_counters = {
  client_closed : int Atomic.t;
  peer_reset : int Atomic.t;
  idle_timeout : int Atomic.t;
  drained : int Atomic.t;
  errors : int Atomic.t;
}

let fresh_session_counters () =
  { client_closed = Atomic.make 0;
    peer_reset = Atomic.make 0;
    idle_timeout = Atomic.make 0;
    drained = Atomic.make 0;
    errors = Atomic.make 0
  }

let count_session_end c = function
  | Client_closed -> ignore (Atomic.fetch_and_add c.client_closed 1)
  | Peer_reset -> ignore (Atomic.fetch_and_add c.peer_reset 1)
  | Idle_timeout -> ignore (Atomic.fetch_and_add c.idle_timeout 1)
  | Drained -> ignore (Atomic.fetch_and_add c.drained 1)
  | Session_error _ -> ignore (Atomic.fetch_and_add c.errors 1)

let idle_timeouts c = Atomic.get c.idle_timeout
let peer_resets c = Atomic.get c.peer_reset

let session_counters_json c =
  Json.Obj
    [ ("client_closed", Json.Int (Atomic.get c.client_closed));
      ("peer_reset", Json.Int (Atomic.get c.peer_reset));
      ("idle_timeout", Json.Int (Atomic.get c.idle_timeout));
      ("drained", Json.Int (Atomic.get c.drained));
      ("errors", Json.Int (Atomic.get c.errors))
    ]

(* ---- handlers -------------------------------------------------------- *)

type session = {
  respond : string -> Json.t -> string;
  close : unit -> unit;
}

type handler = conn:int -> session

let dispatch d ~conn =
  { respond = (fun _line req -> Json.to_string (Dispatcher.handle ~conn d req));
    close = ignore
  }

(* ---- the session loop ------------------------------------------------ *)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* Answer lines until end-of-input, drain, or a channel error.  [busy] is
   up from the moment a line is read until its response is written: the
   drain waits on it, and a line read once the drain began is dropped
   unanswered.  Transport-level session ends (peer gone, reset, idle
   timeout) are classified, never answered. *)
let session ~max_line_bytes ~draining ~busy (s : session) ic oc =
  let answer = function
    | Json.Oversized n ->
      send oc
        (Json.to_string
           (Server.error Json.Null "request_too_large"
              (Printf.sprintf "request line of %d bytes exceeds limit %d" n
                 max_line_bytes)))
    | Json.Line line -> (
      let line = String.trim line in
      if line <> "" then
        match Json.of_string line with
        | Error msg ->
          send oc
            (Json.to_string
               (Server.error Json.Null "bad_request" ("invalid JSON: " ^ msg)))
        | Ok req -> send oc (s.respond line req))
    | Json.Eof -> ()
  in
  let rec loop () =
    if Atomic.get draining then Drained
    else
      match Json.read_line_bounded ~max_bytes:max_line_bytes ic with
      | Json.Eof -> if Atomic.get draining then Drained else Client_closed
      | frame ->
        Atomic.set busy true;
        if Atomic.get draining then Drained
        else begin
          answer frame;
          Atomic.set busy false;
          loop ()
        end
  in
  try loop () with exn -> classify_session_exn exn

(* ---- the listener lifecycle ------------------------------------------ *)

type conn = {
  fd : Unix.file_descr option;  (* [None]: stdio, which shutdown cannot wake *)
  busy : bool Atomic.t;
}

type t = {
  config : config;
  addr : addr option;
  listener : Unix.file_descr option;
  handler : handler;
  on_drained : unit -> unit;
  draining : bool Atomic.t;
  mu : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  session_ends : session_counters;
  mutable sessions : Thread.t list;  (* socket sessions, joined on drain *)
  mutable next_conn : int;
  mutable accept_thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let live_conns t = locked t (fun () -> Hashtbl.length t.conns)

let quietly f = try f () with Sys_error _ | Sys_blocked_io | Unix.Unix_error (_, _, _) -> ()

(* Run one session in its own thread, registered for the drain. *)
let add_session t ?fd ic oc ~release =
  let busy = Atomic.make false in
  let id =
    locked t (fun () ->
        let id = t.next_conn in
        t.next_conn <- id + 1;
        Hashtbl.replace t.conns id { fd; busy };
        id)
  in
  let run () =
    Fun.protect
      ~finally:(fun () -> locked t (fun () -> Hashtbl.remove t.conns id))
      (fun () ->
        let s = t.handler ~conn:id in
        let reason =
          session
            ~max_line_bytes:
              t.config.dispatcher.Dispatcher.server.Server.max_line_bytes
            ~draining:t.draining ~busy s ic oc
        in
        count_session_end t.session_ends reason;
        s.close ();
        quietly (fun () -> flush oc);
        release ())
  in
  let th = Thread.create run () in
  if fd <> None then locked t (fun () -> t.sessions <- th :: t.sessions)

let close_fd fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let reject_over_limit fd =
  quietly (fun () ->
      send
        (Unix.out_channel_of_descr fd)
        (Json.to_string
           (Server.error Json.Null "overloaded" "connection limit reached")));
  close_fd fd

let accept_loop t listener =
  while not (Atomic.get t.draining) do
    match Unix.select [ listener ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept listener with
      | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> ()
      | fd, _peer ->
        if Atomic.get t.draining || live_conns t >= t.config.max_connections
        then reject_over_limit fd
        else begin
          (match t.config.idle_timeout_s with
          | Some s when s > 0. -> (
            try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
            with Unix.Unix_error (_, _, _) -> ())
          | _ -> ());
          add_session t ~fd (Unix.in_channel_of_descr fd)
            (Unix.out_channel_of_descr fd) ~release:(fun () -> close_fd fd)
        end)
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let bind_listener addr =
  match addr with
  | Unix_sock path ->
    (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).h_addr_list.(0)
    in
    Unix.bind fd (ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

let make ?(session_ends = fresh_session_counters ()) ?addr ?listener config
    handler ~on_drained =
  { config;
    addr;
    listener;
    handler;
    on_drained;
    draining = Atomic.make false;
    mu = Mutex.create ();
    conns = Hashtbl.create 16;
    session_ends;
    sessions = [];
    next_conn = 0;
    accept_thread = None
  }

let accepting t =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  Option.iter
    (fun l -> t.accept_thread <- Some (Thread.create (accept_loop t) l))
    t.listener;
  t

let listen ?session_ends config addr handler =
  let listener = bind_listener addr in
  accepting
    (make ?session_ends ~addr ~listener config handler ~on_drained:ignore)

(* A lifecycle answering through its own dispatcher.  The address is
   bound before the worker pool spawns, so a bind failure leaks no
   domains. *)
let dispatched ?addr config =
  let listener = Option.map bind_listener addr in
  let d = Dispatcher.create config.dispatcher in
  let t =
    make ?addr ?listener config (dispatch d) ~on_drained:(fun () ->
        Dispatcher.shutdown d)
  in
  Dispatcher.add_stats d "sessions" (fun () ->
      session_counters_json t.session_ends);
  t

let start config addr = accepting (dispatched ~addr config)

let stdio config ic oc =
  let t = accepting (dispatched config) in
  add_session t ic oc ~release:ignore;
  t

let drain t = Atomic.set t.draining true

let wait t =
  (* until the drain begins: the accept loop returns on it; a stdio
     lifecycle has no accept loop and also ends when its session does *)
  (match t.accept_thread with
  | Some th -> Thread.join th
  | None ->
    while (not (Atomic.get t.draining)) && live_conns t > 0 do
      Thread.delay 0.05
    done);
  Option.iter close_fd t.listener;
  (match t.addr with
  | Some (Unix_sock path) -> (
    try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ());
  (* Wake readers blocked on quiet connections: they see end-of-file and
     fall out of their session loop; writes in flight still complete. *)
  let shutdown_conns mode =
    let fds =
      locked t (fun () ->
          Hashtbl.fold (fun _ c acc -> Option.to_list c.fd @ acc) t.conns [])
    in
    List.iter
      (fun fd -> try Unix.shutdown fd mode with Unix.Unix_error (_, _, _) -> ())
      fds
  in
  shutdown_conns Unix.SHUTDOWN_RECEIVE;
  (* a socket session is waited for until it ends, stdio only while busy *)
  let pending () =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ c n -> if c.fd <> None || Atomic.get c.busy then n + 1 else n)
          t.conns 0)
  in
  let deadline = Unix.gettimeofday () +. t.config.drain_grace_s in
  while pending () > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if pending () > 0 then shutdown_conns Unix.SHUTDOWN_ALL;
  List.iter Thread.join (locked t (fun () -> t.sessions));
  t.on_drained ();
  0

let stop t =
  drain t;
  wait t

let session_ends t = t.session_ends

let run ?(signals = true) t =
  if signals then begin
    let handler = Sys.Signal_handle (fun _ -> drain t) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler
  end;
  wait t

let serve ?signals config addr = run ?signals (start config addr)
