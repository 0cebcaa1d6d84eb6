(** Binary encoding primitives for checkpoint payloads.

    A tiny, dependency-free wire format used by {!Delta_log} records and the
    structural codecs ({!Codec}): LEB128 varints, length-prefixed strings,
    and a table-based CRC-32 (IEEE 802.3 polynomial, reflected) for
    per-record integrity.  Everything here is deterministic — the same value
    always encodes to the same bytes — which is what makes delta-chain
    replay byte-comparable across runs.

    Writers append to a [Buffer.t]; readers consume a [string] through a
    mutable cursor and raise {!Corrupt} (never [Invalid_argument] or an
    out-of-bounds crash) on truncated or malformed input, so a loader can
    turn arbitrary bytes into a typed rejection. *)

exception Corrupt of string
(** Raised by every [read_*] on malformed input: truncation, varint
    overflow, or a length prefix pointing past the end. *)

(* Writers *)

val write_varint : Buffer.t -> int -> unit
(** Unsigned LEB128.  Raises [Invalid_argument] on negative input — the
    formats built on this module only ever encode counts and indices. *)

val write_string : Buffer.t -> string -> unit
(** Varint byte length, then the raw bytes. *)

(* Readers *)

type reader
(** A cursor over an immutable byte string (or a slice of one). *)

val reader : ?pos:int -> ?len:int -> string -> reader
(** [reader s] reads from the whole of [s]; [pos]/[len] select a slice. *)

val at_end : reader -> bool
(** All bytes of the slice have been consumed. *)

val pos : reader -> int
(** Current cursor offset into the underlying string. *)

val remaining : reader -> int
(** Bytes left in the slice — an upper bound on how many more values a
    decoder can read, checked before sizing anything by a decoded count. *)

val read_varint : reader -> int
val read_string : reader -> string

(* Integrity *)

val crc32 : ?crc:int -> string -> pos:int -> len:int -> int
(** CRC-32 (IEEE: polynomial 0xEDB88320, reflected, init/xorout
    0xFFFFFFFF) of [len] bytes of [s] starting at [pos], as a non-negative
    int below 2{^32}.  Pass a previous result as [crc] to continue a
    running digest. *)
