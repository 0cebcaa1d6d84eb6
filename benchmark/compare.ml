(* [run.exe compare A/ B/]: A is the parent's result set, B the change's.

   One row per (workload, metric): each side's median and quartiles, the
   share of pairs B wins, and a verdict.  Runs are paired in seed order.
   A gain needs at least ten pairs, B winning at least nine tenths of
   them (ties count for neither), and a median gap wider than A's own
   interquartile distance.  A metric with a bound is worse when B's
   median is worse than A's by more than the bound, and unresolved when
   its run-to-run spread is wider than the bound — unless every run of B
   beats every run of A.  A metric without a bound (the per-layer ones)
   is worse only by the gain rule read the other way round. *)

open Harness

type declared = { d_name : string; d_unit : string; higher_better : bool; bound : float option }

let load_declared path =
  let j = load_json path in
  let list key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          { d_name = string_exn "name" m;
            d_unit = string_exn "unit" m;
            higher_better = string_exn "better" m = "higher";
            bound = Option.bind (Json.member "bound" m) Json.as_float
          })
        l
    | _ -> failwith (Printf.sprintf "%s: %S is not a list" path key)
  in
  (list "end_to_end", list "per_layer")

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".json" && not (Filename.check_suffix f ".spans.json"))
  |> List.map (fun f -> result_of_json (load_json (Filename.concat dir f)))

(* Values of one metric, in seed order. *)
let series results ~workload ~trace name =
  List.filter (fun r -> r.workload = workload && r.trace = trace) results
  |> List.sort (fun a b -> compare a.seed b.seed)
  |> List.filter_map (fun r ->
         List.find_opt (fun m -> m.name = name) r.metrics |> Option.map (fun m -> m.value))
  |> Array.of_list

type row = {
  workload : string;
  metric : string;
  a : float array;
  b : float array;
  wins : int;
  pairs : int;
  verdict : string;
  bounded : bool;
}

let verdict (d : declared) a b =
  let better x y = if d.higher_better then x > y else x < y in
  let pairs = min (Array.length a) (Array.length b) in
  let wins side =
    List.init pairs (fun i -> if side then better b.(i) a.(i) else better a.(i) b.(i))
    |> List.filter Fun.id |> List.length
  in
  let qa1, ma, qa3 = quartiles a and _, mb, _ = quartiles b in
  (* the gain rule, in either direction *)
  let decisive side =
    pairs >= 10
    && 10 * wins side >= 9 * pairs
    && (if side then better mb ma else better ma mb)
    && Float.abs (mb -. ma) > qa3 -. qa1
  in
  let worse_by = (if d.higher_better then ma -. mb else mb -. ma) /. Float.abs ma in
  let all_better = Array.for_all (fun y -> Array.for_all (better y) a) b in
  let v =
    if decisive true then "improved"
    else
      match d.bound with
      | None -> if decisive false then "worse" else "unresolved"
      | Some bound ->
        if ma <> 0. && worse_by > bound then "worse"
        else if (spread a > bound || spread b > bound) && not all_better then "unresolved"
        else "unchanged"
  in
  (wins true, pairs, v)

let rows ~declared:(e2e, layers) a_results b_results =
  let workloads =
    List.map (fun (r : result) -> r.workload) (a_results @ b_results)
    |> List.sort_uniq String.compare
  in
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun (trace, d) ->
          let a = series a_results ~workload ~trace d.d_name
          and b = series b_results ~workload ~trace d.d_name in
          if Array.length a = 0 && Array.length b = 0 then None
          else
            let wins, pairs, verdict = verdict d a b in
            Some
              { workload; metric = d.d_name; a; b; wins; pairs; verdict;
                bounded = d.bound <> None })
        (List.map (fun d -> (false, d)) e2e @ List.map (fun d -> (true, d)) layers))
    workloads

let print_rows rows =
  let side v =
    let q1, m, q3 = quartiles v in
    Printf.sprintf "%.4g [%.4g %.4g]" m q1 q3
  in
  Printf.printf "%-16s %-28s %-32s %-32s %-7s %s\n" "workload" "metric" "A median [q1 q3]"
    "B median [q1 q3]" "B wins" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-16s %-28s %-32s %-32s %-7s %s\n" r.workload r.metric (side r.a) (side r.b)
        (Printf.sprintf "%d/%d" r.wins r.pairs)
        r.verdict)
    rows

(* Exit status 1 when an end-to-end metric got worse. *)
let run ~benchmark_json a_dir b_dir =
  let rows = rows ~declared:(load_declared benchmark_json) (load_dir a_dir) (load_dir b_dir) in
  print_rows rows;
  if List.exists (fun r -> r.bounded && r.verdict = "worse") rows then 1 else 0
