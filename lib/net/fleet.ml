(* Multi-process shard fleet: process-isolated serving with supervision,
   failover, and graceful degradation.

   One [tgdtool serve] process holds every session thread, warm cache,
   and domain pool — so one runaway request, memory blowup, or crash
   takes down all clients at once.  The fleet splits the blast radius:
   a parent supervisor forks [shards] worker processes, each running the
   existing socket serve loop ({!Transport.serve}) on its own Unix
   socket with its own domain pool and caches.  The parent's front-end
   router is the same {!Transport} listener and session loop with a
   routing handler: it proxies request lines to shards by rendezvous hash
   of the ontology digest — the same rule set always lands on the same
   shard, so per-shard warm caches keep their hit rates.

   {b Supervision.}  Each shard holds the write end of a heartbeat pipe
   and beats every [beat_s]; the parent's monitor thread selects on the
   read ends, reaps exits with [waitpid WNOHANG], and reuses the PR-5
   {!Tgd_engine.Supervisor} state machine for the rest: a missed-beat
   window marks a shard wedged (SIGKILL, then the death path), deaths
   respawn with capped exponential backoff, and an exhausted restart
   budget trips the breaker.  Chaos's process-kill family
   ({!Tgd_engine.Chaos.kill_shot}, site ["fleet.shard"]) is consulted
   once per tick so a deterministic shot stream can [kill -9] shards
   under load in drills.

   {b Failover.}  The decision services are stateless per request
   modulo caches, so when a shard dies mid-request the router retries
   the line on the next-best live shard in rendezvous order, on the
   shard config's retry ladder ([retries], [backoff_base_s]).  A client
   sees its ordinary response, just slower; only a fleet with nothing
   left to try answers a typed [unavailable].

   {b Degraded mode.}  Below quorum (default: majority) the fleet keeps
   answering instead of refusing service, but tightens load shedding:
   requests whose static cost prediction says [Expensive] are shed at
   the router edge with a typed [overloaded] error carrying
   ["degraded": true], preserving the surviving shards' headroom for
   traffic that will finish quickly.

   {b Forking.}  [Unix.fork] requires a single running domain, so the
   router never spawns one.  A fresh child must not keep the parent's
   descriptors (listener, client sessions, backend connections, other
   shards' heartbeat read ends): before serving, it closes every
   descriptor its [/proc/self/fd] lists except 0–2 and its own heartbeat
   write end.  Children leave via [Unix._exit], never [exit] — flushing
   the parent's inherited stdout buffer from a child would duplicate
   output. *)

module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Chaos = Tgd_engine.Chaos
module Supervisor = Tgd_engine.Supervisor
module Pool = Tgd_engine.Pool

type config = {
  shards : int;
  shard : Transport.config;     (* per-shard serving config *)
  cache_bytes : int option;     (* per-shard warm-cache ceiling *)
  quorum : int option;          (* live shards below this => degraded;
                                   default majority *)
  beat_s : float;               (* shard heartbeat period *)
  policy : Supervisor.policy;   (* respawn backoff, wedge window, tick *)
  shard_dir : string option;    (* where shard sockets live *)
}

let default_policy =
  { Supervisor.max_restarts = 1000;
    backoff_base_s = 0.05;
    backoff_cap_s = 2.0;
    wedge_timeout_s = Some 3.0;
    tick_s = 0.1
  }

let default_config =
  { shards = 4;
    shard = Transport.default_config;
    cache_bytes = None;
    quorum = None;
    beat_s = 0.25;
    policy = default_policy;
    shard_dir = None
  }

(* ---- consistent placement ------------------------------------------- *)

(* Rendezvous (highest-random-weight) hashing: every (digest, shard)
   pair gets a pseudo-random score, a digest is served by its
   highest-scoring shard, and the full ranking is the failover order.
   For a fixed shard count the assignment is a pure function of the
   digest (the stability the qcheck property pins down); when one shard
   is down only the digests it owned move, everyone else's cache
   affinity survives the failure. *)
let score digest i =
  let d = Digest.string (Printf.sprintf "%s#%d" digest i) in
  let v = ref 0 in
  for k = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[k]
  done;
  !v

let shard_rank ~shards digest =
  if shards < 1 then invalid_arg "Fleet.shard_rank: shards must be >= 1";
  List.init shards Fun.id
  |> List.sort (fun a b -> compare (score digest b, b) (score digest a, a))

let shard_of_digest ~shards digest = List.hd (shard_rank ~shards digest)

(* The affinity key is the ontology text: requests over the same rule
   set land on the same shard, which is exactly the granularity of the
   sigma-keyed warm caches (entailment memo level 1, analyze memo).
   A batch folds in every sub-request's ontology so the whole submission
   routes as one unit. *)
let rec affinity_parts req acc =
  let acc =
    match Json.member "tgds" req with
    | Some (Json.String s) -> s :: acc
    | _ -> acc
  in
  match Json.member "requests" req with
  | Some (Json.List subs) ->
    List.fold_left (fun acc sub -> affinity_parts sub acc) acc subs
  | _ -> acc

let request_digest req =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (List.rev (affinity_parts req []))))

(* ---- fleet state ----------------------------------------------------- *)

type shard_slot = {
  idx : int;
  sock : string;
  mutable pid : int;                     (* 0 = down *)
  mutable hb : Unix.file_descr option;   (* heartbeat read end *)
  mutable last_beat : float;
}

type t = {
  config : config;
  quorum : int;
  sup : Supervisor.t;
  shards : shard_slot array;
  draining : bool Atomic.t;
  session_ends : Transport.session_counters;
  sessions : int Atomic.t;               (* live router sessions *)
  mutable front : Transport.t option;    (* set once the router listens *)
  mutable monitor_thread : Thread.t option;
  respawns : int Atomic.t;
  chaos_kills : int Atomic.t;
  requests : int Atomic.t;
  failovers : int Atomic.t;
  degraded_shed : int Atomic.t;
  unavailable : int Atomic.t;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let alive_count t =
  Array.fold_left (fun n sh -> if sh.pid > 0 then n + 1 else n) 0 t.shards

let degraded t = alive_count t < t.quorum || Supervisor.tripped t.sup
let respawn_count t = Atomic.get t.respawns
let chaos_kill_count t = Atomic.get t.chaos_kills

(* ---- shard child ----------------------------------------------------- *)

(* Close every inherited descriptor but stdio and [keep].  On Unix a
   [Unix.file_descr] is the kernel's int; without [/proc], sweep the
   first thousand. *)
let close_inherited ~keep =
  let fd_of_int : int -> Unix.file_descr = Obj.magic in
  let open_fds =
    try
      Sys.readdir "/proc/self/fd" |> Array.to_list
      |> List.filter_map int_of_string_opt
    with Sys_error _ -> List.init 1024 Fun.id
  in
  List.iter
    (fun n -> if n > 2 && fd_of_int n <> keep then close_fd (fd_of_int n))
    open_fds

(* The child process: beat the heartbeat pipe from a side thread, then
   run the ordinary socket serve loop until drained.  EPIPE on the beat
   means the parent is gone — an orphaned shard exits rather than
   serving a socket nobody routes to. *)
let run_shard config sock hb_w =
  close_inherited ~keep:hb_w;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Warm.configure ~cache_bytes:config.cache_bytes;
  let stop = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         let buf = Bytes.make 1 'h' in
         let rec beat () =
           if not (Atomic.get stop) then begin
             (match Unix.write hb_w buf 0 1 with
             | _ -> ()
             | exception Unix.Unix_error (EPIPE, _, _) -> Unix._exit 0
             | exception Unix.Unix_error (_, _, _) -> ());
             Thread.delay config.beat_s;
             beat ()
           end
         in
         beat ())
       ());
  let code =
    try Transport.serve ~signals:true config.shard (Transport.Unix_sock sock)
    with _ -> 70
  in
  Atomic.set stop true;
  Unix._exit code

let spawn_shard t i =
  let sh = t.shards.(i) in
  let r, w = Unix.pipe () in
  (match Unix.fork () with
  | 0 -> run_shard t.config sh.sock w
  | pid ->
    close_fd w;
    sh.pid <- pid;
    sh.hb <- Some r;
    sh.last_beat <- Unix.gettimeofday ());
  ignore (Supervisor.note_spawned t.sup i);
  Supervisor.note_busy t.sup i ~now:(Unix.gettimeofday ())

let release_beat sh =
  Option.iter close_fd sh.hb;
  sh.hb <- None

(* A shard is gone (reaped by waitpid): release its heartbeat fd and let
   the supervisor schedule the respawn with backoff. *)
let shard_down t sh ~now =
  release_beat sh;
  sh.pid <- 0;
  Supervisor.note_death t.sup sh.idx ~now

(* SIGKILL and synchronously reap — only called when the process is
   certainly dying (we just signalled it). *)
let terminate_shard sh =
  if sh.pid > 0 then begin
    (try Unix.kill sh.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    try ignore (Unix.waitpid [] sh.pid)
    with Unix.Unix_error (_, _, _) -> ()
  end

let kill_shard t i =
  if i < 0 || i >= Array.length t.shards then false
  else begin
    let sh = t.shards.(i) in
    if sh.pid > 0 then begin
      (try Unix.kill sh.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      true
    end
    else false
  end

(* ---- supervision loop ------------------------------------------------ *)

let monitor t =
  let tick_s = t.config.policy.Supervisor.tick_s in
  let next_tick = ref (Unix.gettimeofday ()) in
  let rec loop () =
    if Atomic.get t.draining then ()
    else begin
      (* heartbeat pipes: drain readable ones, refresh the wedge clock;
         EOF just retires the fd — death is waitpid's verdict, a silent
         live process is the wedge window's *)
      let hb_fds =
        Array.to_list t.shards
        |> List.filter_map (fun sh ->
               Option.map (fun fd -> (fd, sh)) sh.hb)
      in
      let timeout = Float.max 0.01 (!next_tick -. Unix.gettimeofday ()) in
      (match Unix.select (List.map fst hb_fds) [] [] timeout with
      | readable, _, _ ->
        let buf = Bytes.create 64 in
        List.iter
          (fun fd ->
            match List.assoc_opt fd hb_fds with
            | None -> ()
            | Some sh -> (
              match Unix.read fd buf 0 64 with
              | 0 -> release_beat sh
              | _ ->
                let now = Unix.gettimeofday () in
                sh.last_beat <- now;
                Supervisor.note_busy t.sup sh.idx ~now
              | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
                -> ()
              | exception Unix.Unix_error (_, _, _) -> release_beat sh))
          readable
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error (EBADF, _, _) -> ());
      let now = Unix.gettimeofday () in
      if now >= !next_tick then begin
        next_tick := now +. tick_s;
        (* reap exits *)
        Array.iter
          (fun sh ->
            if sh.pid > 0 then
              match Unix.waitpid [ WNOHANG ] sh.pid with
              | 0, _ -> ()
              | _, _ -> shard_down t sh ~now
              | exception Unix.Unix_error (ECHILD, _, _) ->
                shard_down t sh ~now)
          t.shards;
        (* the process-kill chaos family: one deterministic draw per tick *)
        (match Chaos.kill_shot ~site:"fleet.shard" ~n:t.config.shards with
        | Some v when t.shards.(v).pid > 0 ->
          ignore (Atomic.fetch_and_add t.chaos_kills 1);
          (try Unix.kill t.shards.(v).pid Sys.sigkill
           with Unix.Unix_error (_, _, _) -> ())
        | _ -> ());
        (* supervisor verdicts: wedged shards are killed and take the
           death path; dead shards past their backoff respawn; an
           exhausted restart budget trips the breaker (permanent
           degraded mode) *)
        List.iter
          (fun action ->
            match (action : Supervisor.action) with
            | Supervisor.Abandon i ->
              let sh = t.shards.(i) in
              Fmt.epr "fleet: shard %d wedged (no heartbeat), killing@." i;
              terminate_shard sh;
              Supervisor.note_wedged t.sup i ~now;
              release_beat sh;
              sh.pid <- 0
            | Supervisor.Respawn i ->
              ignore (Atomic.fetch_and_add t.respawns 1);
              spawn_shard t i
            | Supervisor.Trip_breaker ->
              Fmt.epr
                "fleet: restart budget exhausted, breaker tripped \
                 (degraded)@.";
              Supervisor.trip t.sup)
          (Supervisor.decide t.sup ~now)
      end;
      loop ()
    end
  in
  loop ()

(* ---- router ---------------------------------------------------------- *)

let error_response req code message extra =
  Json.Obj
    [ ("id", Server.request_id req);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          (("code", Json.String code)
          :: ("message", Json.String message)
          :: extra) )
    ]

let status_json t =
  let h = Supervisor.health t.sup in
  let now = Unix.gettimeofday () in
  Json.Obj
    [ ("shards", Json.Int t.config.shards);
      ("alive", Json.Int (alive_count t));
      ("quorum", Json.Int t.quorum);
      ("degraded", Json.Bool (degraded t));
      ("breaker_tripped", Json.Bool h.Supervisor.breaker_tripped);
      ("respawns", Json.Int (Atomic.get t.respawns));
      ("deaths", Json.Int h.Supervisor.deaths);
      ("wedged", Json.Int h.Supervisor.wedged);
      ("chaos_kills", Json.Int (Atomic.get t.chaos_kills));
      ( "router",
        Json.Obj
          [ ("requests", Json.Int (Atomic.get t.requests));
            ("failovers", Json.Int (Atomic.get t.failovers));
            ("degraded_shed", Json.Int (Atomic.get t.degraded_shed));
            ("unavailable", Json.Int (Atomic.get t.unavailable));
            ("sessions", Json.Int (Atomic.get t.sessions));
            ("session_ends", Transport.session_counters_json t.session_ends)
          ] );
      ( "shard",
        Json.List
          (Array.to_list t.shards
          |> List.map (fun sh ->
                 Json.Obj
                   [ ("idx", Json.Int sh.idx);
                     ("pid", Json.Int sh.pid);
                     ("live", Json.Bool (sh.pid > 0));
                     ( "beat_age_s",
                       Json.Float
                         (if sh.pid > 0 then now -. sh.last_beat else -1.) )
                   ])) )
    ]

(* Per-session backend connections, one per shard, opened lazily and
   dropped on the first transport error (the failover path reopens
   against the respawned process). *)
type backends = (int, in_channel * out_channel * Unix.file_descr) Hashtbl.t

let drop_backend (backends : backends) i =
  match Hashtbl.find_opt backends i with
  | None -> ()
  | Some (_, _, fd) ->
    Hashtbl.remove backends i;
    close_fd fd

let get_backend t (backends : backends) i =
  match Hashtbl.find_opt backends i with
  | Some (ic, oc, _) -> (ic, oc)
  | None -> (
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX t.shards.(i).sock) with
    | () ->
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      Hashtbl.replace backends i (ic, oc, fd);
      (ic, oc)
    | exception e ->
      close_fd fd;
      raise e)

let call_backend t backends i line =
  match
    let ic, oc = get_backend t backends i in
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  with
  | resp -> Some resp
  | exception
      ( End_of_file | Sys_error _ | Sys_blocked_io
      | Unix.Unix_error (_, _, _) ) ->
    drop_backend backends i;
    None

(* Proxy one request line: rank the shards for the request's ontology
   digest, try the best live one, and on a transport failure fall over
   to the next with the retry ladder's backoff.  [skip] remembers shards
   that already failed this request; when every candidate has failed (or
   everything is down) the ladder waits a backoff step for the
   supervisor to respawn something before conceding [unavailable]. *)
let route t backends req line =
  let server = t.config.shard.Transport.dispatcher.Dispatcher.server in
  let retries = server.Server.retries in
  let backoff k =
    Unix.sleepf (server.Server.backoff_base_s *. (2. ** float_of_int k))
  in
  let unavailable why k =
    ignore (Atomic.fetch_and_add t.unavailable 1);
    Json.to_string
      (error_response req "unavailable"
         (Printf.sprintf "%s after %d attempts" why (k + 1))
         [])
  in
  let order = shard_rank ~shards:t.config.shards (request_digest req) in
  let rec attempt k skip =
    let candidate =
      List.find_opt
        (fun i -> t.shards.(i).pid > 0 && not (List.mem i skip))
        order
    in
    match candidate with
    | None ->
      if k >= retries then unavailable "no live shard" k
      else begin
        backoff k;
        attempt (k + 1) []
      end
    | Some i -> (
      match call_backend t backends i line with
      | Some resp -> resp
      | None ->
        ignore (Atomic.fetch_and_add t.failovers 1);
        if k >= retries then unavailable "shard failover exhausted" k
        else begin
          backoff k;
          attempt (k + 1) (i :: skip)
        end)
  in
  attempt 0 []

let answer t backends line req =
  match Option.bind (Json.member "op" req) Json.as_string with
  | Some "fleet_status" ->
    Json.to_string
      (Json.Obj
         [ ("id", Server.request_id req);
           ("ok", Json.Bool true);
           ("result", status_json t)
         ])
  | _ ->
    ignore (Atomic.fetch_and_add t.requests 1);
    let admission = t.config.shard.Transport.dispatcher.Dispatcher.admission in
    if
      degraded t
      && Admission.predict admission req = Tgd_analysis.Strategy.Expensive
    then begin
      (* degraded mode: Expensive-work shedding tightened to the router
         edge — surviving shards keep their headroom for cheap traffic *)
      ignore (Atomic.fetch_and_add t.degraded_shed 1);
      Json.to_string
        (error_response req "overloaded"
           (Printf.sprintf
              "fleet degraded (%d of %d shards live, quorum %d): expensive \
               work shed"
              (alive_count t) t.config.shards t.quorum)
           [ ( "predicted_cost",
               Json.String
                 (Tgd_analysis.Strategy.cost_name
                    Tgd_analysis.Strategy.Expensive) );
             ("degraded", Json.Bool true)
           ])
    end
    else route t backends req line

(* The router's {!Transport} handler: per-session backend connections,
   request lines forwarded verbatim. *)
let router t ~conn:_ =
  let backends : backends = Hashtbl.create 8 in
  ignore (Atomic.fetch_and_add t.sessions 1);
  { Transport.respond = answer t backends;
    close =
      (fun () ->
        Hashtbl.iter (fun _ (_, _, fd) -> close_fd fd) backends;
        ignore (Atomic.fetch_and_add t.sessions (-1)))
  }

(* ---- lifecycle ------------------------------------------------------- *)

let shard_sock_path config addr i =
  match (config.shard_dir, addr) with
  | Some dir, _ -> Filename.concat dir (Printf.sprintf "shard%d.sock" i)
  | None, Transport.Unix_sock path -> Printf.sprintf "%s.shard%d" path i
  | None, Transport.Tcp _ ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tgd_fleet_%d_shard%d.sock" (Unix.getpid ()) i)

let start (config : config) addr =
  if config.shards < 1 then invalid_arg "Fleet.start: shards must be >= 1";
  (* [Unix.fork] needs a single running domain; the warm-pool registry is
     the one thing in this process that may be holding domains alive *)
  Pool.warm_shutdown ();
  let t =
    { config;
      quorum =
        (match config.quorum with
        | Some q -> max 1 (min q config.shards)
        | None -> (config.shards / 2) + 1);
      sup = Supervisor.create config.policy ~slots:config.shards;
      shards =
        Array.init config.shards (fun i ->
            { idx = i;
              sock = shard_sock_path config addr i;
              pid = 0;
              hb = None;
              last_beat = 0.
            });
      draining = Atomic.make false;
      session_ends = Transport.fresh_session_counters ();
      sessions = Atomic.make 0;
      front = None;
      monitor_thread = None;
      respawns = Atomic.make 0;
      chaos_kills = Atomic.make 0;
      requests = Atomic.make 0;
      failovers = Atomic.make 0;
      degraded_shed = Atomic.make 0;
      unavailable = Atomic.make 0
    }
  in
  t.front <-
    Some
      (Transport.listen ~session_ends:t.session_ends config.shard addr
         (router t));
  for i = 0 to config.shards - 1 do
    spawn_shard t i
  done;
  t.monitor_thread <- Some (Thread.create (fun () -> monitor t) ());
  t

let drain t =
  Atomic.set t.draining true;
  Option.iter Transport.drain t.front

let wait t =
  (* every proxied request gets its response before the shards stop *)
  ignore (Option.map Transport.wait t.front);
  Option.iter Thread.join t.monitor_thread;
  Array.iter
    (fun sh ->
      if sh.pid > 0 then
        try Unix.kill sh.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ())
    t.shards;
  let deadline =
    Unix.gettimeofday () +. t.config.shard.Transport.drain_grace_s
  in
  let rec reap () =
    let pending =
      Array.fold_left
        (fun acc sh ->
          if sh.pid <= 0 then acc
          else
            match Unix.waitpid [ WNOHANG ] sh.pid with
            | 0, _ -> sh :: acc
            | _, _ ->
              sh.pid <- 0;
              acc
            | exception Unix.Unix_error (ECHILD, _, _) ->
              sh.pid <- 0;
              acc)
        [] t.shards
    in
    if pending <> [] then
      if Unix.gettimeofday () < deadline then begin
        Thread.delay 0.02;
        reap ()
      end
      else
        List.iter
          (fun sh ->
            terminate_shard sh;
            sh.pid <- 0)
          pending
  in
  reap ();
  Array.iter
    (fun sh ->
      release_beat sh;
      try Unix.unlink sh.sock with Unix.Unix_error (_, _, _) -> ())
    t.shards;
  0

let stop t =
  drain t;
  wait t

let serve ?(signals = true) config addr =
  let t = start config addr in
  if signals then begin
    let handler = Sys.Signal_handle (fun _ -> drain t) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler
  end;
  wait t
