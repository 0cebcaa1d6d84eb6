(** Structural binary codecs for checkpoint payloads.

    Hand-rolled encoders/decoders over {!Wire} for the syntax and instance
    types that checkpoints persist — no [Marshal] anywhere, so payloads are
    compact, versionable, and safe to decode from untrusted bytes: every
    decoder is total — on malformed input it raises {!Wire.Corrupt} (a
    smart constructor's [Invalid_argument] is mapped to it, and no count
    read from the input sizes an allocation past the bytes left) rather
    than crashing or fabricating values, and CRC framing upstream
    ({!Delta_log}) makes that a typed rejection.

    Encodings are deterministic: instances serialize their facts in
    [Instance.fact_list] (sorted) order, so equal states encode to equal
    bytes. *)

open Tgd_syntax
open Tgd_instance

(** {1 Facts relative to a schema}

    Fact records reference their relation as a varint index into the
    schema's sorted relation list (one or two bytes instead of the name),
    falling back to an inline (name, arity) pair for relations outside it. *)

type rel_writer
type rel_reader

val rel_writer : Schema.t -> rel_writer
val rel_reader : Schema.t -> rel_reader

val write_facts : rel_writer -> Buffer.t -> Fact.t list -> unit
val read_facts : rel_reader -> Wire.reader -> Fact.t list

val write_instance : Buffer.t -> Instance.t -> unit
(** Schema, then the full domain (which may exceed the active domain), then
    the facts in sorted order. *)

val read_instance : Wire.reader -> Instance.t
(** Inverse of {!write_instance}; facts over inline relations extend the
    decoded schema, so replay never rejects a fact the encoder accepted. *)

val write_tgd : Buffer.t -> Tgd.t -> unit
val read_tgd : Wire.reader -> Tgd.t
