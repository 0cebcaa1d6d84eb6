(* Generational base + delta-chain checkpoints.  See the .mli for the file
   layout and recovery contract.

   Crash ordering: a new generation is made durable base-first (atomic
   tmp+rename), then its empty log, then the pointer switch — so at any
   instant the pointer names a generation whose base is complete.  A crash
   between the base write and the pointer switch leaves an orphan newer
   generation; the loader prefers the pointer but falls back to on-disk
   generations (newest first), so even that window resumes. *)

type config = {
  dir : string;
  name : string;
  kind : string;
  version : int;
  keep : int;
  fsync : bool;
}

let config ?(version = 1) ?(keep = 2) ?(fsync = false) ~dir ~name ~kind () =
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
      | _ -> invalid_arg "Delta_log.config: name must be a plain file stem")
    name;
  if name = "" then invalid_arg "Delta_log.config: empty name";
  if keep < 1 then invalid_arg "Delta_log.config: keep must be >= 1";
  { dir; name; kind; version; keep; fsync }

let ptr_magic = "TGDLOGPTR1"
let base_magic = "TGDBASE1"
let log_magic = "TGDLOG1"

let current_path c = Filename.concat c.dir (c.name ^ ".current")

let base_path c ~generation =
  Filename.concat c.dir (Printf.sprintf "%s.%d.base" c.name generation)

let log_path c ~generation =
  Filename.concat c.dir (Printf.sprintf "%s.%d.log" c.name generation)

type error = { path : string; message : string }

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.path e.message
let error_to_string e = Fmt.str "%a" pp_error e

type chain = {
  generation : int;
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

(* Generations with a base file on disk, newest first. *)
let gens_on_disk c =
  let prefix = c.name ^ "." and suffix = ".base" in
  let files = try Sys.readdir c.dir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter_map (fun f ->
         if
           String.length f > String.length prefix + String.length suffix
           && String.sub f 0 (String.length prefix) = prefix
           && Filename.check_suffix f suffix
         then
           int_of_string_opt
             (String.sub f (String.length prefix)
                (String.length f - String.length prefix - String.length suffix))
         else None)
  |> List.sort_uniq (fun a b -> Int.compare b a)

(* ------------------------------------------------------------------ *)
(* Pointer file                                                        *)
(* ------------------------------------------------------------------ *)

type pointer =
  | P_missing
  | P_ok of string * int * int (* kind, version, generation *)
  | P_bad of error

let read_pointer c =
  let p = current_path c in
  if not (Sys.file_exists p) then P_missing
  else
    match read_file p with
    | exception Sys_error m -> P_bad { path = p; message = m }
    | src -> (
      match String.split_on_char ' ' (String.trim src) with
      | [ magic; kind; version; generation ] when magic = ptr_magic -> (
        match (int_of_string_opt version, int_of_string_opt generation) with
        | Some v, Some g -> P_ok (kind, v, g)
        | _ -> P_bad { path = p; message = "malformed pointer fields" })
      | _ -> P_bad { path = p; message = "not a delta-log pointer" })

let write_pointer c ~generation =
  write_atomic c (current_path c)
    (Printf.sprintf "%s %s %d %d\n" ptr_magic c.kind c.version generation)

(* ------------------------------------------------------------------ *)
(* Base files                                                          *)
(* ------------------------------------------------------------------ *)

let write_base c ~generation base =
  let crc = Wire.crc32 base ~pos:0 ~len:(String.length base) in
  write_atomic c
    (base_path c ~generation)
    (Printf.sprintf "%s\nkind %s\nversion %d\ngeneration %d\nlength %d\ncrc %08x\n\n%s"
       base_magic c.kind c.version generation (String.length base) crc base);
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
    let* generation = int_field "generation" in
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
      else Ok (kind, version, generation, String.sub src !pos length)

let read_base c ~generation =
  let p = base_path c ~generation in
  match read_file p with
  | exception Sys_error m -> Error { path = p; message = m }
  | src -> (
    match parse_base src with
    | Error m -> Error { path = p; message = m }
    | Ok (kind, version, g, payload) ->
      if kind <> c.kind then
        Error
          { path = p;
            message =
              Printf.sprintf "base of kind %S, expected %S" kind c.kind
          }
      else if version <> c.version then
        Error
          { path = p;
            message =
              Printf.sprintf "format version %d, expected %d" version c.version
          }
      else if g <> generation then
        Error
          { path = p;
            message =
              Printf.sprintf "header names generation %d, file is %d" g
                generation
          }
      else Ok payload)

(* ------------------------------------------------------------------ *)
(* Log files: header line + CRC-framed records                         *)
(* ------------------------------------------------------------------ *)

let log_header c ~generation =
  Printf.sprintf "%s %s %d %d\n" log_magic c.kind c.version generation

let frame payload =
  let buf = Buffer.create (String.length payload + 10) in
  Wire.write_varint buf (String.length payload);
  let crc = Wire.crc32 payload ~pos:0 ~len:(String.length payload) in
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

(* [ls_valid = 0] signals "no usable header": {!resume} recreates the file. *)
let read_log c ~generation =
  let p = log_path c ~generation in
  match read_file p with
  | exception Sys_error _ ->
    (* a base without a log is the crash window between the base write and
       the log create — an empty chain, not an error *)
    empty_scan
  | src -> (
    let expected = log_header c ~generation in
    let hlen = String.length expected in
    if String.length src >= hlen && String.sub src 0 hlen = expected then
      scan_log p src hlen
    else
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

let load_generation c ~generation ~extra_warnings =
  match read_base c ~generation with
  | Error e -> Error e
  | Ok base ->
    let scan = read_log c ~generation in
    Ok
      { generation;
        base;
        deltas = scan.ls_deltas;
        torn_bytes = scan.ls_torn;
        dropped_records = scan.ls_dropped;
        warnings = extra_warnings @ scan.ls_warnings;
        log_valid_bytes = scan.ls_valid
      }

let load c =
  let pointer = read_pointer c in
  let disk = gens_on_disk c in
  let pointer_gen, pointer_warnings =
    match pointer with
    | P_missing -> (None, [])
    | P_bad e -> (None, [ Printf.sprintf "%s: %s" e.path e.message ])
    | P_ok (kind, version, g) ->
      if kind <> c.kind || version <> c.version then
        ( None,
          [ Printf.sprintf
              "%s: pointer names kind %S version %d, expected %S version %d"
              (current_path c) kind version c.kind c.version
          ] )
      else (Some g, [])
  in
  let candidates =
    match pointer_gen with
    | Some g -> g :: List.filter (fun g' -> g' <> g) disk
    | None -> disk
  in
  if candidates = [] then
    if pointer = P_missing then Fresh
    else
      Rejected
        [ { path = current_path c;
            message =
              (match pointer_warnings with
              | m :: _ -> m
              | [] -> "pointer names a generation with no files on disk")
          }
        ]
  else begin
    let errors = ref [] in
    let rec try_gens first = function
      | [] -> Rejected (List.rev !errors)
      | g :: rest ->
        let fallback_warnings =
          if first then pointer_warnings
          else
            pointer_warnings
            @ List.rev_map
                (fun e -> Printf.sprintf "%s: %s" e.path e.message)
                !errors
            @ [ Printf.sprintf
                  "fell back to generation %d (newer generations unreadable)"
                  g
              ]
        in
        (match load_generation c ~generation:g ~extra_warnings:fallback_warnings with
        | Error e ->
          errors := e :: !errors;
          try_gens false rest
        | Ok chain ->
          if chain.warnings = [] then Resumed chain else Resumed_partial chain)
    in
    try_gens true candidates
  end

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  mutable gen : int;
  mutable oc : out_channel option;
  mutable count : int;
}

let prune c ~newest =
  List.iter
    (fun g ->
      if g <= newest - c.keep then
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ base_path c ~generation:g; log_path c ~generation:g ])
    (gens_on_disk c)

let open_generation c ~generation ~base =
  mkdir_p c.dir;
  write_base c ~generation base;
  let oc = open_out_bin (log_path c ~generation) in
  output_string oc (log_header c ~generation);
  sync_out c oc;
  write_pointer c ~generation;
  prune c ~newest:generation;
  oc

let start c ~base =
  mkdir_p c.dir;
  let newest =
    List.fold_left max
      (match read_pointer c with P_ok (_, _, g) -> g | _ -> 0)
      (gens_on_disk c)
  in
  let generation = newest + 1 in
  let oc = open_generation c ~generation ~base in
  { cfg = c; gen = generation; oc = Some oc; count = 0 }

let resume c chain =
  let p = log_path c ~generation:chain.generation in
  let oc =
    if chain.log_valid_bytes = 0 then begin
      (* missing log or unusable header: recreate it fresh *)
      mkdir_p c.dir;
      let oc = open_out_bin p in
      output_string oc (log_header c ~generation:chain.generation);
      sync_out c oc;
      oc
    end
    else begin
      (* drop the unverified suffix so appends extend the good prefix *)
      (try Unix.truncate p chain.log_valid_bytes
       with Unix.Unix_error _ -> ());
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 p
    end
  in
  (* make a generation fallback durable: later loads go straight there *)
  (match read_pointer c with
  | P_ok (k, v, g) when k = c.kind && v = c.version && g = chain.generation ->
    ()
  | _ -> write_pointer c ~generation:chain.generation);
  { cfg = c; gen = chain.generation; oc = Some oc; count = List.length chain.deltas }

let channel t =
  match t.oc with
  | Some oc -> oc
  | None -> invalid_arg "Delta_log: handle is closed"

let append t payload =
  let oc = channel t in
  output_string oc (frame payload);
  sync_out t.cfg oc;
  t.count <- t.count + 1;
  let g = Stats.global () in
  g.Stats.delta_records <- g.Stats.delta_records + 1

let compact t ~base =
  ignore (channel t);
  Option.iter close_out_noerr t.oc;
  let generation = t.gen + 1 in
  let oc = open_generation t.cfg ~generation ~base in
  t.gen <- generation;
  t.count <- 0;
  t.oc <- Some oc;
  let g = Stats.global () in
  g.Stats.compactions <- g.Stats.compactions + 1

let generation t = t.gen

let close t =
  Option.iter close_out_noerr t.oc;
  t.oc <- None

let remove c =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (current_path c :: (current_path c ^ ".tmp")
    :: List.concat_map
         (fun g ->
           [ base_path c ~generation:g;
             base_path c ~generation:g ^ ".tmp";
             log_path c ~generation:g
           ])
         (gens_on_disk c))

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

(* Records per generation; past this the chain is folded into a fresh
   base, so replay work and retained bytes stay bounded. *)
let compact_threshold = 64

let record t payload ~base =
  append t payload;
  if t.count >= compact_threshold then compact t ~base:(base ())

let finish t =
  close t;
  remove t.cfg

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

type generation_info = {
  g_generation : int;
  g_current : bool;
  g_base_path : string;
  g_base_bytes : int;
  g_base_status : [ `Ok | `Missing | `Bad of string ];
  g_log_path : string;
  g_log_bytes : int;
  g_records : record_info list;
}

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let inspect ~dir ~name =
  (* a lenient config: paths only, no kind/version expectations *)
  let c = { dir; name; kind = ""; version = 0; keep = 1; fsync = false } in
  let pointer =
    match read_pointer c with P_ok (k, v, g) -> Some (k, v, g) | _ -> None
  in
  let disk = gens_on_disk c in
  let gens =
    match pointer with
    | Some (_, _, g) when not (List.mem g disk) ->
      List.sort (fun a b -> Int.compare b a) (g :: disk)
    | _ -> disk
  in
  let info g =
    let bp = base_path c ~generation:g and lp = log_path c ~generation:g in
    let base_status =
      if not (Sys.file_exists bp) then `Missing
      else
        match read_file bp with
        | exception Sys_error m -> `Bad m
        | src -> (
          match parse_base src with
          | Error m -> `Bad m
          | Ok (_, _, hg, _) when hg <> g ->
            `Bad (Printf.sprintf "header names generation %d" hg)
          | Ok _ -> `Ok)
    in
    let records =
      match read_file lp with
      | exception Sys_error _ -> []
      | src ->
        (* skip the header line, whatever its fields say *)
        let start =
          match String.index_opt src '\n' with
          | Some nl
            when String.length src >= String.length log_magic
                 && String.sub src 0 (String.length log_magic) = log_magic ->
            nl + 1
          | _ -> 0
        in
        (scan_log lp src start).ls_records
    in
    { g_generation = g;
      g_current =
        (match pointer with Some (_, _, pg) -> pg = g | None -> false);
      g_base_path = bp;
      g_base_bytes = file_size bp;
      g_base_status = base_status;
      g_log_path = lp;
      g_log_bytes = file_size lp;
      g_records = records
    }
  in
  (pointer, List.map info gens)

let scan ~dir =
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".current" then
           Some (Filename.chop_suffix f ".current")
         else if Filename.check_suffix f ".base" then
           (* strip ".<gen>.base" *)
           let stem = Filename.chop_suffix f ".base" in
           match String.rindex_opt stem '.' with
           | Some i
             when i < String.length stem - 1
                  && int_of_string_opt
                       (String.sub stem (i + 1) (String.length stem - i - 1))
                     <> None -> Some (String.sub stem 0 i)
           | _ -> None
         else None)
  |> List.sort_uniq String.compare
