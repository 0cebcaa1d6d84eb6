(** Incremental checkpoints: one base snapshot plus an append-only log of
    delta records, with a graceful recovery ladder.

    Both users checkpoint a state that only grows (the chase adds facts,
    a §9 sweep lengthens its screened prefix), so base + records is the
    state and nothing is ever folded or rewritten.  A chain named [name]
    under [dir] is exactly two files:

    - [name.base] — the state when the chain started, written once
      (atomic [.tmp] + rename): a plain-text header (magic, kind, version,
      payload length, CRC-32) followed by one binary payload;
    - [name.log] — a header line (magic, kind, version, the base payload's
      CRC-32) followed by CRC-framed records (varint payload length,
      4-byte little-endian CRC-32, payload) appended at each checkpoint
      barrier.

    Payloads are opaque byte strings; callers bring their own codecs
    ({!Codec}).  {!finish} removes both files once the run completes.

    Recovery distinguishes the two ways a chain goes bad.  A record cut off
    by the end of the file is the expected signature of a crash mid-append
    (kill -9, power loss): it is silently dropped and the load still counts
    as clean ({!Resumed} with [torn_bytes > 0]).  A CRC-invalid record with
    more bytes after it means real corruption: the verified prefix is kept,
    the damage is reported as warnings, and the load is {!Resumed_partial}
    — degraded, but never a hard failure while the base verifies.  An
    unreadable base, or a log whose header names another base's CRC, is
    {!Rejected}: no record is ever replayed onto a base it was not written
    against.

    Durability: writes are buffered and flushed per record; [fsync]
    additionally syncs the descriptor at every barrier (the base write and
    each append), trading throughput for power-loss safety.  Kill -9 alone
    never needs it — the page cache survives the process.

    Counters: base writes bump [Stats.snapshots], appends
    [Stats.delta_records]. *)

type config = {
  dir : string;
  name : string;  (** plain file stem, no path separators *)
  kind : string;  (** payload type tag; mismatches are rejected at load *)
  version : int;
  fsync : bool;
}

val config :
  ?version:int -> ?fsync:bool -> dir:string -> name:string -> kind:string ->
  unit -> config
(** [version] defaults to 1, [fsync] to false.
    @raise Invalid_argument on a non-filename [name]. *)

val base_path : config -> string
val log_path : config -> string

type error = { path : string; message : string }

val error_to_string : error -> string

type chain = {
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
      (** the base verified, but records were lost to mid-chain corruption
          or an unreadable log header; [warnings] says what was dropped *)
  | Rejected of error list
      (** files exist but the base does not verify (or is missing, or the
          log was written against another base) *)

val load : config -> load
(** Never raises on corrupt input. *)

type t
(** An open log handle, appending to one chain. *)

val start : config -> base:string -> t
(** Begin a chain: write its base atomically, then an empty log. *)

val resume : config -> chain -> t
(** Reopen a loaded chain for appending.  The unverified suffix (torn tail
    or corrupt records) is truncated away first, so subsequent appends
    extend the verified prefix. *)

val append : t -> string -> unit
(** Append one CRC-framed delta record and flush it. *)

val close : t -> unit

val remove : config -> unit
(** Delete the chain's files — call when the checkpointed computation
    completes, so a later run starts {!Fresh}. *)

(** {1 Journals}

    How a resumable run checkpoints, whatever its state: the caller brings
    only its codec (encode the base, encode a record, decode a chain).
    {!load_journal} finds what is on disk, {!open_journal} starts a fresh
    chain or reopens the loaded one, {!append} records and {!finish}
    removes the chain once the run completes.  The chase
    ([Chase.restricted_resumable]) and the rewriting sweeps
    ([Rewrite.g_to_l] and kin) both take a journal. *)

type 'state resumed = {
  state : 'state;  (** base + verified deltas, decoded *)
  chain : chain;  (** where appends continue *)
  warnings : string list;
      (** non-empty = degraded resume: records were lost to mid-chain
          corruption (surface these, then continue) *)
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
    [Error] — the chain is {!Rejected}, or the verified bytes do not decode
    ([Wire.Corrupt] or [Invalid_argument] out of [decode]): surface the
    diagnoses, don't silently restart. *)

val open_journal : 'state journal -> base:(unit -> string) -> t
(** Start or resume: {!resume} the loaded chain, or {!start} a fresh one
    whose base is [base ()]. *)

val finish : t -> unit
(** {!close} the handle and {!remove} its chain: the run completed. *)

(** {1 Inspection} — used by [tgdtool checkpoint inspect]. *)

type record_info = {
  r_index : int;
  r_offset : int;  (** byte offset of the frame in the log file *)
  r_bytes : int;  (** payload bytes *)
  r_status : [ `Ok | `Torn | `Corrupt of string ];
}

type inspection = {
  base_file : string;
  base_bytes : int;  (** file size; 0 when missing *)
  base_status : [ `Ok of string * int | `Missing | `Bad of string ];
      (** [`Ok (kind, version)] when the header parses and the CRC holds *)
  log_file : string;
  log_bytes : int;
  log_status : [ `Ok | `Missing | `Bad of string ];
      (** [`Bad] for an unreadable header or one naming another base *)
  records : record_info list;
}

val inspect : dir:string -> name:string -> inspection
(** The chain [name]'s base status plus per-record CRC status.  Purely
    observational: no kind/version check, nothing modified. *)

val scan : dir:string -> string list
(** Names of the chains under [dir] (stems of [*.base] and [*.log]
    files), sorted. *)
