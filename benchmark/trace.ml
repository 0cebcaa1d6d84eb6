(* Spans recorded in memory around the benchmark's own calls into each
   layer of the program.

   A span has a name, start and end, the span that was open when it began
   (its parent) and the request it belongs to.  Each domain keeps its own
   stack of open spans, so a span's self time — its duration minus the
   time its children cover — is known when it closes.  Durations and self
   times are kept per name for the metrics; the full records of the first
   [keep] spans of each domain are written out at exit. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;
  req : int;
  self_ns : int;
}

type frame = { fid : int; freq : int; mutable child_ns : int }

type buf = {
  slot : int;
  mutable next : int;
  mutable stack : frame list;
  mutable kept : span list;
  mutable n_kept : int;
  per_name : (string, Harness.Floats.t * Harness.Floats.t) Hashtbl.t;
}

let keep = 5_000

(* Set before any recording domain starts. *)
let enabled = ref false

let bufs : buf list ref = ref []
let bufs_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect bufs_mu (fun () ->
          let b =
            { slot = List.length !bufs;
              next = 0;
              stack = [];
              kept = [];
              n_kept = 0;
              per_name = Hashtbl.create 16
            }
          in
          bufs := b :: !bufs;
          b))

let record b sp =
  let durs, selfs =
    match Hashtbl.find_opt b.per_name sp.name with
    | Some p -> p
    | None ->
      let p = (Harness.Floats.create (), Harness.Floats.create ()) in
      Hashtbl.add b.per_name sp.name p;
      p
  in
  Harness.Floats.push durs (Harness.s_of_ns (sp.stop_ns - sp.start_ns));
  Harness.Floats.push selfs (Harness.s_of_ns sp.self_ns);
  if b.n_kept < keep then begin
    b.kept <- sp :: b.kept;
    b.n_kept <- b.n_kept + 1
  end

(* [span ~req name f] runs [f] inside a span when tracing is on, and runs
   it bare otherwise.  A span without [req] belongs to its parent's
   request. *)
let span ?req name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    b.next <- b.next + 1;
    let id = (b.next lsl 6) lor b.slot in
    let parent, preq =
      match b.stack with p :: _ -> (p.fid, p.freq) | [] -> (0, 0)
    in
    let req = Option.value req ~default:preq in
    let frame = { fid = id; freq = req; child_ns = 0 } in
    b.stack <- frame :: b.stack;
    let start_ns = Harness.now_ns () in
    let finish () =
      let stop_ns = Harness.now_ns () in
      b.stack <- List.tl b.stack;
      let dur = stop_ns - start_ns in
      (match b.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
      record b
        { id; name; start_ns; stop_ns; parent; req; self_ns = dur - frame.child_ns }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let durations name =
  List.concat_map
    (fun b ->
      match Hashtbl.find_opt b.per_name name with
      | Some (d, _) -> [ Harness.Floats.to_array d ]
      | None -> [])
    !bufs
  |> Array.concat

let self_times name =
  List.concat_map
    (fun b ->
      match Hashtbl.find_opt b.per_name name with
      | Some (_, s) -> [ Harness.Floats.to_array s ]
      | None -> [])
    !bufs
  |> Array.concat

(* Median duration of a span name in seconds; 0 if it never ran. *)
let median_s name = Harness.median (durations name)

let names () =
  List.concat_map
    (fun b -> Hashtbl.fold (fun k _ acc -> k :: acc) b.per_name [])
    !bufs
  |> List.sort_uniq String.compare

let to_json () =
  let module Json = Tgd_serve.Json in
  let spans =
    List.concat_map (fun b -> List.rev b.kept) !bufs
    |> List.map (fun sp ->
           Json.Obj
             [ ("id", Json.Int sp.id);
               ("name", Json.String sp.name);
               ("start_ns", Json.Int sp.start_ns);
               ("end_ns", Json.Int sp.stop_ns);
               ("parent", Json.Int sp.parent);
               ("req", Json.Int sp.req);
               ("self_ns", Json.Int sp.self_ns)
             ])
  in
  let summary =
    List.map
      (fun name ->
        let d = durations name and s = self_times name in
        ( name,
          Json.Obj
            [ ("count", Json.Int (Array.length d));
              ("median_us", Json.Float (1e6 *. Harness.median d));
              ("median_self_us", Json.Float (1e6 *. Harness.median s));
              ("total_self_s", Json.Float (Array.fold_left ( +. ) 0. s))
            ] ))
      (names ())
  in
  Json.Obj [ ("summary", Json.Obj summary); ("spans", Json.List spans) ]
