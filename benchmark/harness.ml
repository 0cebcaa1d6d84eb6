(* Measurement harness: the clock, order statistics, throughput windows,
   procfs readers, host facts, child processes and the result record. *)

module Json = Tgd_serve.Json

(* ---- clock ---------------------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns *. 1e-9
let ns_of_s s = int_of_float (s *. 1e9)
let elapsed_s t0 = s_of_ns (now_ns () - t0)

(* ---- order statistics ------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; 0 on empty input. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    ((1. -. frac) *. s.(lo)) +. (frac *. s.(hi))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

(* Python's [statistics.quantiles data ~n:4] (the default "exclusive"
   method) — the rule the benchmark's spread bounds are checked with. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* Set-ups timed per untraced run; setup_s is their median. *)
let setup_starts = 5

(* The window of every windowed statistic, in seconds. *)
let window = 3.

(* A phase shorter than one window is one window. *)
let effective_window ~t0 ~t1 = Float.min window (s_of_ns (t1 - t0))

(* Throughput per fixed window of a phase.  Each operation counts towards
   a window with the share of its duration that falls inside it, so a 3 s
   window of 0.1 s operations carries no plus-or-minus-one rounding. *)
let window_rates ~t0 ~t1 starts stops =
  let span = s_of_ns (t1 - t0) in
  let window = effective_window ~t0 ~t1 in
  let nw = max 1 (int_of_float (span /. window)) in
  let wns = ns_of_s window in
  let acc = Array.make nw 0. in
  Array.iteri
    (fun i s ->
      let e = stops.(i) in
      let d = e - s in
      if d <= 0 then begin
        let w = (e - t0) / wns in
        if w >= 0 && w < nw then acc.(w) <- acc.(w) +. 1.
      end
      else
        for w = max 0 ((s - t0) / wns) to min (nw - 1) ((e - t0) / wns) do
          let lo = max s (t0 + (w * wns)) and hi = min e (t0 + ((w + 1) * wns)) in
          if hi > lo then
            acc.(w) <- acc.(w) +. (float_of_int (hi - lo) /. float_of_int d)
        done)
    starts;
  Array.map (fun x -> x /. window) acc

(* [f] of the samples of each window, then the median over windows: a
   burst of interference from outside the program moves one or two
   windows, not the result.  [values.(i)] belongs to the window in which
   operation [i] ended, at [stops.(i)].  Returns the median, the number of
   samples, and the statistic of every window. *)
let windowed ~t0 ~t1 stops values f =
  let span = s_of_ns (t1 - t0) in
  let window = effective_window ~t0 ~t1 in
  let nw = max 1 (int_of_float (span /. window)) in
  let wns = ns_of_s window in
  let groups = Array.make nw [] in
  Array.iteri
    (fun i e ->
      let w = min (nw - 1) (max 0 ((e - t0) / wns)) in
      groups.(w) <- values.(i) :: groups.(w))
    stops;
  let per_window =
    Array.to_list groups
    |> List.filter_map (function [] -> None | l -> Some (f (Array.of_list l)))
    |> Array.of_list
  in
  (median per_window, Array.length stops, per_window)

(* Throughput as the median over windows, so one scheduler hiccup cannot
   move it; with the rate of every window. *)
let ops_per_s ~t0 ~t1 starts stops =
  let rates = window_rates ~t0 ~t1 starts stops in
  (median rates, rates)

(* Latency percentile [q] per window, median over windows, in ms. *)
let windowed_ms ~t0 ~t1 starts stops q =
  let latencies = Array.mapi (fun i e -> s_of_ns (e - starts.(i))) stops in
  let v, n, per_window = windowed ~t0 ~t1 stops latencies (fun l -> percentile l q) in
  (1e3 *. v, n, Array.map (fun x -> 1e3 *. x) per_window)

let us s = 1e6 *. s
let ms s = 1e3 *. s
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* ---- growable buffers ------------------------------------------------ *)

module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

module Floats = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* ---- procfs ------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set of a live process, in kB; 0 once it is gone. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0

(* /proc reports CPU time in USER_HZ ticks, which the Linux ABI fixes at
   100 per second. *)
let ticks_per_s = 100.

(* utime + stime of every thread of a live process, in seconds. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | text -> (
    (* fields after the parenthesised command name, starting at state *)
    let rest =
      String.sub text (String.rindex text ')' + 2)
        (String.length text - String.rindex text ')' - 2)
    in
    match String.split_on_char ' ' rest with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: st :: _ ->
      (float_of_string ut +. float_of_string st) /. ticks_per_s
    | _ -> 0.)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- host facts ------------------------------------------------------ *)

(* The commit of a git checkout, read from .git without running git; the
   benchmark also runs from exported trees, which report "unknown". *)
let git_commit () =
  let strip s = String.trim s in
  try
    let head = strip (read_file ".git/HEAD") in
    if String.starts_with ~prefix:"ref: " head then begin
      let r = String.sub head 5 (String.length head - 5) in
      try strip (read_file (Filename.concat ".git" r))
      with Sys_error _ ->
        String.split_on_char '\n' (read_file ".git/packed-refs")
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ sha; name ] when name = r -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"
    end
    else head
  with Sys_error _ -> "unknown"

let host_json ~seed ~tgdtool =
  Json.Obj
    [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (git_commit ()));
      ("seed", Json.Int seed);
      ("tgdtool", Json.String tgdtool)
    ]

(* ---- child processes --------------------------------------------------- *)

(* Every process the benchmark starts is registered here and stopped at
   exit, including after SIGTERM/SIGINT, so no server outlives a run. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_mu = Mutex.create ()

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stderr) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout
      Unix.stderr
  in
  Mutex.protect live_mu (fun () -> Hashtbl.replace live pid ());
  pid

(* Poll for exit until [timeout] seconds pass; [None] if still running. *)
let wait_exit ~timeout pid =
  let deadline = now_ns () + ns_of_s timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now_ns () > deadline then None
      else begin
        Unix.sleepf 0.005;
        go ()
      end
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)
  in
  let r = go () in
  if r <> None then Mutex.protect live_mu (fun () -> Hashtbl.remove live pid);
  r

(* SIGTERM, wait [grace] seconds, then SIGKILL and reap. *)
let stop ?(grace = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  match wait_exit ~timeout:grace pid with
  | Some status -> status
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    Option.value (wait_exit ~timeout:10. pid) ~default:(Unix.WSIGNALED Sys.sigkill)

let stop_all () =
  Mutex.protect live_mu (fun () -> Hashtbl.fold (fun pid () acc -> pid :: acc) live [])
  |> List.iter (fun pid -> ignore (stop ~grace:5. pid))

let () =
  at_exit stop_all;
  let on_signal = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal

(* ---- results ------------------------------------------------------------ *)

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int option;  (** sample count behind a percentile *)
  windows : float array;  (** the per-window values behind a windowed median *)
}

let metric ?samples ?(windows = [||]) name unit value = { name; value; unit; samples; windows }

type result = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let metric_json m =
  Json.Obj
    ([ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]
    @ (match m.samples with Some n -> [ ("samples", Json.Int n) ] | None -> [])
    @
    if m.windows = [||] then []
    else [ ("windows", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) m.windows))) ])

let result_json ~host r =
  Json.Obj
    [ ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Int r.seconds);
      ("trace", Json.Bool r.trace);
      ("host", host);
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) r.metrics));
      ("notes", Json.List (List.map (fun s -> Json.String s) r.notes))
    ]

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing %S" k)

let int_exn k j =
  match Json.as_int (member_exn k j) with
  | Some i -> i
  | None -> failwith (Printf.sprintf "%S is not an integer" k)

let float_exn k j =
  match Json.as_float (member_exn k j) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "%S is not a number" k)

let string_exn k j =
  match Json.as_string (member_exn k j) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "%S is not a string" k)

let result_of_json j =
  let metrics =
    match member_exn "metrics" j with
    | Json.Obj fields ->
      List.map
        (fun (name, m) ->
          { name;
            value = float_exn "value" m;
            unit = string_exn "unit" m;
            samples = Option.bind (Json.member "samples" m) Json.as_int;
            windows = [||]
          })
        fields
    | _ -> failwith "metrics is not an object"
  in
  { workload = string_exn "workload" j;
    seed = int_exn "seed" j;
    seconds = int_exn "seconds" j;
    trace = Json.as_bool (member_exn "trace" j) = Some true;
    attempted = int_exn "attempted" j;
    failed = int_exn "failed" j;
    metrics;
    notes =
      (match Json.member "notes" j with
      | Some (Json.List l) -> List.filter_map Json.as_string l
      | _ -> [])
  }

let load_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
