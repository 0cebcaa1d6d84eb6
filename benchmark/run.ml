(* The benchmark's command line.

     run.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
     run.exe --smoke [--out DIR]
     run.exe compare A/ B/
     run.exe golden [--check]

   Each workload runs in a child process of its own ([--child W]), which
   writes its result to DIR.  This process prints every metric as
   [workload metric value unit] and, last, one JSON line with the metrics
   BENCHMARK.json declares for the mode: the end-to-end ones untraced,
   the per-layer ones traced.  It exits 1 when an output was wrong, and
   2 without a result when a run could not complete. *)

open Harness

let workloads = [ "serve_warm"; "fleet_cold"; "rewrite_layered"; "chase_layered" ]
let benchmark_json = "BENCHMARK.json"

(* A child must end well inside the 180 s a run may take. *)
let child_timeout_s = 165.

let tgdtool () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "tgdtool.exe")

let result_path ~out ~workload ~seed ~trace =
  Filename.concat out (Printf.sprintf "%s.s%d.t%d.json" workload seed (if trace then 1 else 0))

let spans_path ~out ~workload ~seed =
  Filename.concat out (Printf.sprintf "%s.s%d.spans.json" workload seed)

(* ---- child: one workload ----------------------------------------------- *)

let run_child ~workload ~seed ~seconds ~trace ~out =
  let tgdtool = tgdtool () in
  if not (Sys.file_exists tgdtool) then
    failwith (tgdtool ^ " not built (run: dune build ./bin/tgdtool.exe)");
  let run_serve w = Serving.run ~workload:w ~tgdtool ~dir:out ~seed ~seconds ~trace in
  let run_lib w = Library.run ~workload:w ~tgdtool ~dir:out ~seed ~seconds ~trace in
  let metrics, attempted, failed, notes =
    match workload with
    | "serve_warm" -> run_serve Serving.Warm
    | "fleet_cold" -> run_serve Serving.Cold
    | "rewrite_layered" -> run_lib Library.Rewrite
    | "chase_layered" -> run_lib Library.Chase
    | w -> failwith ("unknown workload " ^ w)
  in
  let r = { workload; seed; seconds; trace; attempted; failed; metrics; notes } in
  write_file
    (result_path ~out ~workload ~seed ~trace)
    (Json.to_string (result_json ~host:(host_json ~seed ~tgdtool) r) ^ "\n");
  if trace then write_file (spans_path ~out ~workload ~seed) (Json.to_string (Trace.to_json ()))

(* ---- parent: run children, report ------------------------------------- *)

let run_workload ~workload ~seed ~seconds ~trace ~out =
  let path = result_path ~out ~workload ~seed ~trace in
  if Sys.file_exists path then Sys.remove path;
  let pid =
    spawn Sys.executable_name
      [ "--child"; workload; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
        "--trace"; (if trace then "1" else "0"); "--out"; out ]
  in
  let status =
    match wait_exit ~timeout:child_timeout_s pid with
    | Some st -> st
    | None -> Harness.stop ~grace:8. pid
  in
  match status with
  | Unix.WEXITED 0 when Sys.file_exists path -> Ok (result_of_json (load_json path))
  | _ -> Error (Printf.sprintf "%s: the run did not complete" workload)

let print_metrics (r : result) =
  List.iter
    (fun m ->
      Printf.printf "%s %s %.6g %s%s\n" r.workload m.name m.value m.unit
        (match m.samples with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    r.metrics;
  List.iter (fun n -> Printf.printf "%s note: %s\n" r.workload n) r.notes

(* The declared metrics of a mode, checked against what a run emitted. *)
let declared_metrics ~trace (r : result) =
  let e2e, layers = Compare.load_declared benchmark_json in
  List.map
    (fun (d : Compare.declared) ->
      match List.find_opt (fun m -> m.name = d.Compare.d_name) r.metrics with
      | Some m when m.unit = d.Compare.d_unit -> Ok m
      | Some m -> Error (Printf.sprintf "%s: unit %s, declared %s" m.name m.unit d.Compare.d_unit)
      | None -> Error (Printf.sprintf "%s: %s not emitted" r.workload d.Compare.d_name))
    (if trace then layers else e2e)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
       ms)

let main ~workloads ~seed ~seconds ~trace ~out =
  mkdir_p out;
  let results =
    List.map (fun workload -> run_workload ~workload ~seed ~seconds ~trace ~out) workloads
  in
  let fail msg =
    prerr_endline ("benchmark: " ^ msg);
    exit 2
  in
  let results = List.map (function Ok r -> r | Error e -> fail e) results in
  List.iter print_metrics results;
  let declared =
    List.map
      (fun r ->
        List.map (function Ok m -> m | Error e -> fail e) (declared_metrics ~trace r))
      results
  in
  let attempted = List.fold_left (fun acc (r : result) -> acc + r.attempted) 0 results
  and failed = List.fold_left (fun acc (r : result) -> acc + r.failed) 0 results in
  let summary =
    match (results, declared) with
    | [ _ ], [ ms ] -> [ ("metrics", metrics_json ms) ]
    | _ ->
      [ ( "workloads",
          Json.Obj
            (List.map2 (fun (r : result) ms -> (r.workload, metrics_json ms)) results declared) )
      ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([ ("correct", Json.Bool (failed = 0));
             ("attempted", Json.Int attempted);
             ("failed", Json.Int failed)
           ]
          @ summary)));
  if failed > 0 then exit 1

(* Every workload for 1 s, untraced then traced: every declared metric
   must be emitted and nothing may fail. *)
let smoke ~out =
  mkdir_p out;
  let problems =
    List.concat_map
      (fun trace ->
        List.concat_map
          (fun workload ->
            match run_workload ~workload ~seed:1 ~seconds:1 ~trace ~out with
            | Error e -> [ e ]
            | Ok r ->
              List.filter_map
                (function Ok _ -> None | Error e -> Some e)
                (declared_metrics ~trace r)
              @ if r.failed > 0 then [ Printf.sprintf "%s: %d failed" workload r.failed ] else [])
          workloads)
      [ false; true ]
  in
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) problems;
  if problems <> [] then exit 1;
  print_endline "smoke: every declared metric emitted, nothing failed"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let out = ref "bench-out" and child = ref None and smoke_mode = ref false and check = ref false in
  let anon = ref [] in
  let spec =
    [ ("--workload", Arg.String (fun w -> workload := Some w), "W one workload (default: all)");
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "N measured seconds per run (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR result directory (default bench-out)");
      ("--smoke", Arg.Set smoke_mode, " 1 s of every workload, checking every declared metric");
      ("--check", Arg.Set check, " with golden: compare instead of writing");
      ("--child", Arg.String (fun w -> child := Some w), "W run one workload in this process")
    ]
  in
  Arg.parse spec (fun a -> anon := a :: !anon) "run.exe [options] | compare A B | golden [--check]";
  let trace = !trace = 1 in
  match (List.rev !anon, !child) with
  | [ "compare"; a; b ], _ -> exit (Compare.run ~benchmark_json a b)
  | [ "golden" ], _ ->
    let stale = Gen.regenerate ~check:!check in
    List.iter (fun n -> prerr_endline ("golden: " ^ n ^ " differs")) stale;
    if stale <> [] then exit 1
  | [], Some workload -> run_child ~workload ~seed:!seed ~seconds:!seconds ~trace ~out:!out
  | [], None when !smoke_mode -> smoke ~out:!out
  | [], None ->
    let ws = match !workload with Some w -> [ w ] | None -> workloads in
    List.iter
      (fun w ->
        if not (List.mem w workloads) then begin
          prerr_endline ("unknown workload " ^ w);
          exit 2
        end)
      ws;
    main ~workloads:ws ~seed:!seed ~seconds:!seconds ~trace ~out:!out
  | _ ->
    prerr_endline "usage: run.exe [options] | compare A B | golden [--check]";
    exit 2
