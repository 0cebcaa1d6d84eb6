(* Append-only base + record-log checkpoints.  See the .mli for the file
   layout and recovery contract.

   Crash ordering: a chain is made durable base-first (atomic tmp+rename),
   then its log is created under a header naming the base's CRC-32 — so a
   log on disk always has a complete base under it, and a crash between
   the two leaves a base alone, which loads as an empty chain.  {!remove}
   deletes the log before the base for the same reason. *)

type config = {
  dir : string;
  name : string;
  kind : string;
  version : int;
  fsync : bool;
}

let config ?(version = 1) ?(fsync = false) ~dir ~name ~kind () =
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
      | _ -> invalid_arg "Delta_log.config: name must be a plain file stem")
    name;
  if name = "" then invalid_arg "Delta_log.config: empty name";
  { dir; name; kind; version; fsync }

let base_magic = "TGDBASE2"
let log_magic = "TGDLOG2"

let base_path c = Filename.concat c.dir (c.name ^ ".base")
let log_path c = Filename.concat c.dir (c.name ^ ".log")

type error = { path : string; message : string }

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.path e.message
let error_to_string e = Fmt.str "%a" pp_error e

type chain = {
  base : string;
  deltas : string list;
  torn_bytes : int;
  dropped_records : int;
  warnings : string list;
  log_valid_bytes : int;
}

type load =
  | Fresh
  | Resumed of chain
  | Resumed_partial of chain
  | Rejected of error list

(* ------------------------------------------------------------------ *)
(* Small file helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> () (* lost a race: fine *)
  end

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sync_out c oc =
  flush oc;
  if c.fsync then Unix.fsync (Unix.descr_of_out_channel oc)

(* Atomic whole-file replacement: contents to a .tmp sibling, then rename. *)
let write_atomic c path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      sync_out c oc);
  Sys.rename tmp path

let crc_of s = Wire.crc32 s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* The base file                                                       *)
(* ------------------------------------------------------------------ *)

let write_base c base =
  write_atomic c (base_path c)
    (Printf.sprintf "%s\nkind %s\nversion %d\nlength %d\ncrc %08x\n\n%s"
       base_magic c.kind c.version (String.length base) (crc_of base) base);
  let g = Stats.global () in
  g.Stats.snapshots <- g.Stats.snapshots + 1

(* Structural parse, no expectations: header fields + CRC-checked payload. *)
let parse_base src =
  let pos = ref 0 in
  let line () =
    match String.index_from_opt src !pos '\n' with
    | None -> Error "truncated header"
    | Some nl ->
      let l = String.sub src !pos (nl - !pos) in
      pos := nl + 1;
      Ok l
  in
  let ( let* ) = Result.bind in
  let field expect =
    let* l = line () in
    match String.index_opt l ' ' with
    | Some i when String.sub l 0 i = expect ->
      Ok (String.sub l (i + 1) (String.length l - i - 1))
    | _ -> Error ("malformed header (expected `" ^ expect ^ " ...`)")
  in
  let int_field expect =
    let* s = field expect in
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error ("header " ^ expect ^ " is not an int")
  in
  let* magic = line () in
  if magic <> base_magic then Error "not a delta-log base (bad magic)"
  else
    let* kind = field "kind" in
    let* version = int_field "version" in
    let* length = int_field "length" in
    let* crc_s = field "crc" in
    let* blank = line () in
    if blank <> "" then Error "missing blank separator"
    else if String.length src - !pos <> length then
      Error
        (Printf.sprintf "truncated payload (%d of %d bytes)"
           (String.length src - !pos) length)
    else
      let crc = Wire.crc32 src ~pos:!pos ~len:length in
      if Printf.sprintf "%08x" crc <> crc_s then Error "payload CRC mismatch"
      else Ok (kind, version, crc, String.sub src !pos length)

let read_base c =
  let p = base_path c in
  let err message = Error { path = p; message } in
  match read_file p with
  | exception Sys_error m -> err m
  | src -> (
    match parse_base src with
    | Error m -> err m
    | Ok (kind, _, _, _) when kind <> c.kind ->
      err (Printf.sprintf "base of kind %S, expected %S" kind c.kind)
    | Ok (_, version, _, _) when version <> c.version ->
      err (Printf.sprintf "format version %d, expected %d" version c.version)
    | Ok (_, _, crc, payload) -> Ok (payload, crc))

(* ------------------------------------------------------------------ *)
(* The log file: header line + CRC-framed records                      *)
(* ------------------------------------------------------------------ *)

(* The header names the base the records extend, by its payload CRC. *)
let log_header c ~crc =
  Printf.sprintf "%s %s %d %08x\n" log_magic c.kind c.version crc

let frame payload =
  let buf = Buffer.create (String.length payload + 10) in
  Wire.write_varint buf (String.length payload);
  let crc = crc_of payload in
  Buffer.add_char buf (Char.chr (crc land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xff));
  Buffer.add_string buf payload;
  Buffer.contents buf

type record_info = {
  r_index : int;
  r_offset : int;
  r_bytes : int;
  r_status : [ `Ok | `Torn | `Corrupt of string ];
}

(* One frame at [pos].  [`Torn] = the frame runs past the end of the file
   (the signature of a crash mid-append); [`Bad] = a complete frame whose
   payload fails its CRC; [`Undecodable] = the length prefix itself is
   garbage, so no further framing can be trusted. *)
let read_frame src pos =
  let len = String.length src in
  match
    let r = Wire.reader ~pos ~len:(len - pos) src in
    let plen = Wire.read_varint r in
    (plen, Wire.pos r)
  with
  | exception Wire.Corrupt _ ->
    if len - pos < 10 then `Torn else `Undecodable
  | plen, hpos ->
    if hpos + 4 + plen > len then `Torn
    else
      let stored =
        Char.code src.[hpos]
        lor (Char.code src.[hpos + 1] lsl 8)
        lor (Char.code src.[hpos + 2] lsl 16)
        lor (Char.code src.[hpos + 3] lsl 24)
      in
      let payload_pos = hpos + 4 in
      let crc = Wire.crc32 src ~pos:payload_pos ~len:plen in
      let payload = String.sub src payload_pos plen in
      if crc = stored then `Frame (payload, payload_pos + plen)
      else `Bad (payload_pos + plen, plen)

type log_scan = {
  ls_deltas : string list; (* verified prefix, append order *)
  ls_records : record_info list; (* every frame seen, for inspection *)
  ls_torn : int;
  ls_dropped : int;
  ls_warnings : string list;
  ls_valid : int; (* byte length of the verified prefix (incl. header) *)
}

let empty_scan =
  { ls_deltas = [];
    ls_records = [];
    ls_torn = 0;
    ls_dropped = 0;
    ls_warnings = [];
    ls_valid = 0
  }

(* Count the complete frames following a mid-chain corruption — they are
   individually intact but cannot be kept (the state they extend is gone). *)
let rec count_complete src pos acc =
  if pos >= String.length src then acc
  else
    match read_frame src pos with
    | `Frame (_, next) | `Bad (next, _) -> count_complete src next (acc + 1)
    | `Torn | `Undecodable -> acc

let scan_log path src start =
  let len = String.length src in
  let deltas = ref [] and records = ref [] in
  let torn = ref 0 and dropped = ref 0 in
  let warnings = ref [] in
  let valid = ref start in
  let pos = ref start in
  let idx = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < len do
    let record status bytes =
      records :=
        { r_index = !idx; r_offset = !pos; r_bytes = bytes; r_status = status }
        :: !records
    in
    (match read_frame src !pos with
    | `Frame (payload, next) ->
      record `Ok (String.length payload);
      deltas := payload :: !deltas;
      valid := next;
      pos := next
    | `Torn ->
      record `Torn (len - !pos);
      torn := len - !pos;
      stop := true
    | `Bad (next, bytes) when next >= len ->
      (* a CRC-bad final record is a torn tail too: the partial write hit
         the payload instead of the frame boundary *)
      record `Torn bytes;
      torn := len - !pos;
      stop := true
    | `Bad (next, bytes) ->
      record (`Corrupt "payload CRC mismatch") bytes;
      dropped := 1 + count_complete src next 0;
      warnings :=
        Printf.sprintf
          "%s: record %d (offset %d) failed its CRC; dropped it and %d \
           record(s) after it, resuming from the last good prefix"
          path !idx !pos (!dropped - 1)
        :: !warnings;
      stop := true
    | `Undecodable ->
      record (`Corrupt "unreadable record length") (len - !pos);
      dropped := 1;
      warnings :=
        Printf.sprintf
          "%s: record %d (offset %d) has an unreadable length prefix; \
           dropped the rest of the chain (%d bytes)"
          path !idx !pos (len - !pos)
        :: !warnings;
      stop := true);
    incr idx
  done;
  { ls_deltas = List.rev !deltas;
    ls_records = List.rev !records;
    ls_torn = !torn;
    ls_dropped = !dropped;
    ls_warnings = List.rev !warnings;
    ls_valid = !valid
  }

(* The header line's fields, when it is a log header at all. *)
let parse_log_header src =
  match String.index_opt src '\n' with
  | None -> None
  | Some nl -> (
    match String.split_on_char ' ' (String.sub src 0 nl) with
    | [ magic; kind; version; crc ] when magic = log_magic ->
      Option.map (fun v -> (kind, v, crc, nl + 1)) (int_of_string_opt version)
    | _ -> None)

(* [ls_valid = 0] signals "no usable header": {!resume} recreates the file.
   A well-formed header for another base is an error: its records extend a
   state this base is not. *)
let read_log c ~crc =
  let p = log_path c in
  match read_file p with
  | exception Sys_error _ ->
    (* a base without a log is the crash window between the base write and
       the log create — an empty chain, not an error *)
    Ok empty_scan
  | src -> (
    let expected = log_header c ~crc in
    match parse_log_header src with
    | Some (_, _, _, start) when String.sub src 0 start = expected ->
      Ok (scan_log p src start)
    | Some (kind, version, crc', _) ->
      Error
        { path = p;
          message =
            Printf.sprintf
              "log written against another base (kind %S, version %d, base \
               crc %s; the base is kind %S, version %d, crc %08x)"
              kind version crc' c.kind c.version crc
        }
    | None ->
      Ok
        { empty_scan with
          ls_warnings =
            [ Printf.sprintf
                "%s: log header unreadable; dropped the whole chain (%d bytes)"
                p (String.length src)
            ]
        })

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load c =
  let has_base = Sys.file_exists (base_path c) in
  if not (has_base || Sys.file_exists (log_path c)) then Fresh
  else if not has_base then
    Rejected [ { path = log_path c; message = "log without its base" } ]
  else
    match read_base c with
    | Error e -> Rejected [ e ]
    | Ok (base, crc) -> (
      match read_log c ~crc with
      | Error e -> Rejected [ e ]
      | Ok scan ->
        let chain =
          { base;
            deltas = scan.ls_deltas;
            torn_bytes = scan.ls_torn;
            dropped_records = scan.ls_dropped;
            warnings = scan.ls_warnings;
            log_valid_bytes = scan.ls_valid
          }
        in
        if chain.warnings = [] then Resumed chain else Resumed_partial chain)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

type t = { cfg : config; mutable oc : out_channel option }

let create_log c ~crc =
  let oc = open_out_bin (log_path c) in
  output_string oc (log_header c ~crc);
  sync_out c oc;
  oc

let start c ~base =
  mkdir_p c.dir;
  write_base c base;
  { cfg = c; oc = Some (create_log c ~crc:(crc_of base)) }

let resume c chain =
  let oc =
    if chain.log_valid_bytes = 0 then begin
      (* missing log or unusable header: recreate it fresh *)
      mkdir_p c.dir;
      create_log c ~crc:(crc_of chain.base)
    end
    else begin
      (* drop the unverified suffix so appends extend the good prefix *)
      let p = log_path c in
      (try Unix.truncate p chain.log_valid_bytes
       with Unix.Unix_error _ -> ());
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 p
    end
  in
  { cfg = c; oc = Some oc }

let append t payload =
  match t.oc with
  | None -> invalid_arg "Delta_log: handle is closed"
  | Some oc ->
    output_string oc (frame payload);
    sync_out t.cfg oc;
    let g = Stats.global () in
    g.Stats.delta_records <- g.Stats.delta_records + 1

let close t =
  Option.iter close_out_noerr t.oc;
  t.oc <- None

let remove c =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ log_path c; base_path c; base_path c ^ ".tmp" ]

(* ------------------------------------------------------------------ *)
(* Journals: how a resumable run checkpoints                           *)
(* ------------------------------------------------------------------ *)

type 'state resumed = {
  state : 'state;
  chain : chain;
  warnings : string list;
}

type 'state journal = { log : config; resumed : 'state resumed option }

let load_journal ~decode c =
  match load c with
  | Fresh -> Ok { log = c; resumed = None }
  | Rejected errs -> Error (List.map error_to_string errs)
  | Resumed chain | Resumed_partial chain -> (
    match decode chain with
    | state ->
      Ok { log = c; resumed = Some { state; chain; warnings = chain.warnings } }
    | exception (Wire.Corrupt m | Invalid_argument m) ->
      (* CRC-valid bytes that do not decode: a format bug or a stale kind,
         never a partial write — reject rather than guess *)
      Error
        [ Printf.sprintf "%s: undecodable checkpoint payload (%s)" c.name m ])

let open_journal j ~base =
  match j.resumed with
  | Some r -> resume j.log r.chain
  | None -> start j.log ~base:(base ())

let finish t =
  close t;
  remove t.cfg

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

type inspection = {
  base_file : string;
  base_bytes : int;
  base_status : [ `Ok of string * int | `Missing | `Bad of string ];
  log_file : string;
  log_bytes : int;
  log_status : [ `Ok | `Missing | `Bad of string ];
  records : record_info list;
}

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let inspect ~dir ~name =
  (* a lenient config: paths only, no kind/version expectations *)
  let c = { dir; name; kind = ""; version = 0; fsync = false } in
  let bp = base_path c and lp = log_path c in
  let base =
    if not (Sys.file_exists bp) then Error `Missing
    else
      match read_file bp with
      | exception Sys_error m -> Error (`Bad m)
      | src -> Result.map_error (fun m -> `Bad m) (parse_base src)
  in
  let log_status, records =
    match read_file lp with
    | exception Sys_error _ -> (`Missing, [])
    | src -> (
      match (parse_log_header src, base) with
      | None, _ -> (`Bad "unreadable header", [])
      | Some (_, _, crc, start), Ok (_, _, base_crc, _)
        when crc <> Printf.sprintf "%08x" base_crc ->
        ( `Bad (Printf.sprintf "written against base crc %s" crc),
          (scan_log lp src start).ls_records )
      | Some (_, _, _, start), _ -> (`Ok, (scan_log lp src start).ls_records))
  in
  { base_file = bp;
    base_bytes = file_size bp;
    base_status =
      (match base with
      | Ok (kind, version, _, _) -> `Ok (kind, version)
      | Error s -> s);
    log_file = lp;
    log_bytes = file_size lp;
    log_status;
    records
  }

let scan ~dir =
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter_map (fun f ->
         List.find_map
           (fun suffix ->
             if Filename.check_suffix f suffix then
               Some (Filename.chop_suffix f suffix)
             else None)
           [ ".base"; ".log" ])
  |> List.sort_uniq String.compare
