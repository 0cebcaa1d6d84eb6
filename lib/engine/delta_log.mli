(** Incremental checkpoints: a full base snapshot plus an append-only chain
    of delta records, with generational compaction and a graceful recovery
    ladder.

    A log named [name] under [dir] occupies three kinds of file:

    - [name.current] — a one-line pointer naming the live generation,
      replaced atomically ([.tmp] + rename);
    - [name.<g>.base] — the full state as of the start of generation [g]:
      a plain-text header (magic, kind, version, generation, payload length,
      CRC-32) followed by one binary payload;
    - [name.<g>.log] — a header line followed by CRC-framed records
      (varint payload length, 4-byte little-endian CRC-32, payload)
      appended at each checkpoint barrier.

    Payloads are opaque byte strings; callers bring their own codecs
    ({!Codec}).  {!compact} folds the chain into a fresh generation's base
    and retires generations beyond [keep], so the files on disk stay
    bounded however long the run.

    Recovery distinguishes the two ways a chain goes bad.  A record cut off
    by the end of the file is the expected signature of a crash mid-append
    (kill -9, power loss): it is silently dropped and the load still counts
    as clean ({!Resumed} with [torn_bytes > 0]).  A CRC-invalid record with
    more bytes after it means real corruption: the verified prefix is kept,
    the damage is reported as warnings, and the load is {!Resumed_partial}
    — degraded, but never a hard failure while any prefix verifies.  When
    the live generation's base itself is unreadable, older retained
    generations are tried before rejecting.

    Durability: writes are buffered and flushed per record; [fsync]
    additionally syncs the descriptor at every barrier (base writes,
    appends, pointer switches), trading throughput for power-loss safety.
    Kill -9 alone never needs it — the page cache survives the process.

    Counters: base writes bump [Stats.snapshots], appends
    [Stats.delta_records], compactions [Stats.compactions]. *)

type config = {
  dir : string;
  name : string;  (** plain file stem, no path separators *)
  kind : string;  (** payload type tag; mismatches are rejected at load *)
  version : int;
  keep : int;  (** generations retained after compaction (≥ 1) *)
  fsync : bool;
}

val config :
  ?version:int ->
  ?keep:int ->
  ?fsync:bool ->
  dir:string ->
  name:string ->
  kind:string ->
  unit ->
  config
(** [version] defaults to 1, [keep] to 2, [fsync] to false.
    @raise Invalid_argument on a non-filename [name] or [keep < 1]. *)

val current_path : config -> string
val base_path : config -> generation:int -> string
val log_path : config -> generation:int -> string

type error = { path : string; message : string }

val error_to_string : error -> string

type chain = {
  generation : int;
  base : string;  (** the base payload, CRC-verified *)
  deltas : string list;  (** verified record payloads, in append order *)
  torn_bytes : int;
      (** bytes of an incomplete final record silently dropped (expected
          after a crash mid-append); [0] when the tail is clean *)
  dropped_records : int;
      (** complete records discarded after a mid-chain corruption *)
  warnings : string list;
      (** human-readable degradations; [[]] iff the load was clean *)
  log_valid_bytes : int;
      (** byte length of the verified log prefix — where appends resume *)
}

type load =
  | Fresh  (** nothing on disk: start from scratch *)
  | Resumed of chain  (** clean chain (a torn tail does not count against) *)
  | Resumed_partial of chain
      (** a verified prefix was recovered, but records were lost to
          mid-chain corruption or the load fell back to an older
          generation; [warnings] says what was dropped *)
  | Rejected of error list
      (** files exist but no generation yields a verifiable base *)

val load : config -> load
(** Never raises on corrupt input.  Tries the generation named by
    [name.current] first, then any other on-disk generations newest
    first. *)

type t
(** An open log handle, appending to one generation. *)

val start : config -> base:string -> t
(** Begin a new generation: write its base atomically, start an empty
    record chain, switch the pointer, and prune generations beyond
    [keep]. *)

val resume : config -> chain -> t
(** Reopen a loaded chain for appending.  The unverified suffix (torn tail
    or corrupt records) is truncated away first, so subsequent appends
    extend the verified prefix. *)

val append : t -> string -> unit
(** Append one CRC-framed delta record and flush it. *)

val compact : t -> base:string -> unit
(** Fold the chain into a fresh generation whose base is [base] (the
    caller's encoding of the current full state), then prune old
    generations.  Equivalent to {!start} on the same handle. *)

val generation : t -> int

val close : t -> unit

val remove : config -> unit
(** Delete the pointer and every generation's files — call when the
    checkpointed computation completes, so a later run starts {!Fresh}. *)

(** {1 Journals}

    How a resumable run checkpoints, whatever its state: the caller brings
    only its codec (encode the base, encode a record, decode a chain).
    {!load_journal} finds what is on disk, {!open_journal} starts a fresh
    chain or reopens the loaded one, {!record} appends (compacting at a
    fixed threshold) and {!finish} removes the chain once the run
    completes.  The chase ([Chase.restricted_resumable]) and the rewriting
    sweeps ([Rewrite.g_to_l] and kin) both take a journal. *)

type 'state resumed = {
  state : 'state;  (** base + verified deltas, decoded *)
  chain : chain;  (** where appends continue *)
  warnings : string list;
      (** non-empty = degraded resume: records were lost to mid-chain
          corruption or a generation fallback (surface these, then
          continue) *)
}

type 'state journal = {
  log : config;
  resumed : 'state resumed option;  (** [None]: start a fresh chain *)
}

val load_journal :
  decode:(chain -> 'state) ->
  config ->
  ('state journal, string list) Stdlib.result
(** The one chain loader.  [Ok] with [resumed = None] — nothing on disk,
    start fresh; [Ok] with [Some r] — resume from [r] (a torn final record,
    the kill -9 signature, is dropped silently; mid-chain corruption lands
    in [r.warnings] with the resume taken from the last verifiable prefix);
    [Error] — no generation yields a verifiable base, or the verified bytes
    do not decode ([Wire.Corrupt] or [Invalid_argument] out of [decode]):
    surface the diagnoses, don't silently restart. *)

val open_journal : 'state journal -> base:(unit -> string) -> t
(** Start or resume: {!resume} the loaded chain, or {!start} a fresh one
    whose base is [base ()]. *)

val record : t -> string -> base:(unit -> string) -> unit
(** {!append} one record; once the generation holds 64 records, {!compact}
    it into a fresh base [base ()] (the caller's encoding of the state the
    chain now describes). *)

val finish : t -> unit
(** {!close} the handle and {!remove} its chain: the run completed. *)

(** {1 Inspection} — used by [tgdtool checkpoint inspect]. *)

type record_info = {
  r_index : int;
  r_offset : int;  (** byte offset of the frame in the log file *)
  r_bytes : int;  (** payload bytes *)
  r_status : [ `Ok | `Torn | `Corrupt of string ];
}

type generation_info = {
  g_generation : int;
  g_current : bool;  (** named by the pointer file *)
  g_base_path : string;
  g_base_bytes : int;  (** file size; 0 when missing *)
  g_base_status : [ `Ok | `Missing | `Bad of string ];
  g_log_path : string;
  g_log_bytes : int;
  g_records : record_info list;
}

val inspect :
  dir:string -> name:string -> (string * int * int) option * generation_info list
(** All on-disk generations of [name] (newest first) with per-record CRC
    status, plus the pointer's [(kind, version, generation)] when readable.
    Purely observational: no kind/version check, nothing modified. *)

val scan : dir:string -> string list
(** Names of the delta logs under [dir] (stems of [*.current] files and of
    any orphaned [*.N.base]), sorted. *)
