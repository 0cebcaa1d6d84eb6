exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let write_varint buf n =
  if n < 0 then invalid_arg "Wire.write_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?len src =
  let limit = match len with Some l -> pos + l | None -> String.length src in
  if pos < 0 || limit > String.length src || pos > limit then
    invalid_arg "Wire.reader: slice out of bounds";
  { src; pos; limit }

let at_end r = r.pos >= r.limit
let pos r = r.pos
let remaining r = r.limit - r.pos

let read_byte r =
  if r.pos >= r.limit then corrupt "truncated input (offset %d)" r.pos
  else begin
    let b = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    b
  end

(* 9 × 7 = 63 payload bits: every OCaml int round-trips, and a tenth
   continuation byte is unambiguously garbage. *)
let read_varint r =
  let rec go acc shift =
    if shift > 63 then corrupt "varint overflow (offset %d)" r.pos
    else
      let b = read_byte r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if acc < 0 then corrupt "varint overflow (offset %d)" r.pos
      else if b land 0x80 = 0 then acc
      else go acc (shift + 7)
  in
  go 0 0

let read_string r =
  let len = read_varint r in
  if len > r.limit - r.pos then
    corrupt "string length %d exceeds remaining input (offset %d)" len r.pos
  else begin
    let s = String.sub r.src r.pos len in
    r.pos <- r.pos + len;
    s
  end

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, reflected)                                            *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wire.crc32: slice out of bounds";
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
