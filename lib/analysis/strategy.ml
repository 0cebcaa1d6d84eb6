open Tgd_syntax

type engine =
  | Datalog_saturation
  | Chase_to_completion
  | Budgeted_chase

type t = {
  engine : engine;
  cert : Termination.cert option;
  common_classes : Tgd_class.cls list;
}

let common_classes sigma =
  List.filter
    (fun c -> Tgd_class.all_in_class c sigma)
    [ Tgd_class.Linear; Tgd_class.Guarded; Tgd_class.Frontier_guarded;
      Tgd_class.Full ]

(* The polynomial front of the lattice: weak, joint, then super-weak
   acyclicity.  No chase runs, so per-request admission can afford this
   on every decision. *)
let shallow_certificate sigma =
  match Termination.certificate sigma with
  | Some c -> Some c
  | None ->
    if Placegraph.is_super_weakly_acyclic sigma then
      Some Termination.Super_weakly_acyclic
    else None

let decide ?(deep = false) sigma =
  let cert =
    if deep then Option.map fst (Lattice.classify sigma)
    else shallow_certificate sigma
  in
  let classes = common_classes sigma in
  let engine =
    if List.mem Tgd_class.Full classes then Datalog_saturation
    else
      match cert with
      | Some _ -> Chase_to_completion
      | None -> Budgeted_chase
  in
  { engine; cert; common_classes = classes }

let may_promote t =
  match t.engine with
  | Datalog_saturation | Chase_to_completion -> true
  | Budgeted_chase -> false

type cost =
  | Cheap
  | Moderate
  | Expensive

(* Per-request admission control keys off this: a certified-terminating
   (or plain Datalog) set does bounded chase work per request, an
   uncertified set may burn its whole budget before answering.  [Cheap]
   is reserved for requests that never chase at all (classify/analyze) —
   the serving layer assigns it without consulting a strategy. *)
let predicted_cost t =
  match t.engine with
  | Datalog_saturation | Chase_to_completion -> Moderate
  | Budgeted_chase -> Expensive

(* Relative cost of screening one rewrite candidate: a termination
   certificate (or plain Datalog) bounds each candidate's chase to a
   handful of rounds, while an uncertified candidate may burn its whole
   per-candidate budget — two orders of magnitude apart in practice. *)
let cost_weight = function
  | Cheap | Moderate -> 1
  | Expensive -> 64

let item_weight t = cost_weight (predicted_cost t)

(* A chunk should carry about this much weight: enough work to amortize
   one queue claim (mutex + condition wake-up) into noise. *)
let chunk_weight_target = 256

let screen_chunk t ~jobs ~n =
  if n <= 0 then 1
  else begin
    (* certified items are cheap, so pack many per claim; uncertified
       items are heavy and high-variance, so keep chunks small and let
       dynamic claiming balance the load — but never fewer than ~4 chunks
       per worker, or there is nothing left to steal *)
    let by_dispatch = max 1 (chunk_weight_target / item_weight t) in
    let by_balance = max 1 (n / (4 * max 1 jobs)) in
    max 1 (min by_dispatch by_balance)
  end

let max_cost a b =
  match (a, b) with
  | Expensive, _ | _, Expensive -> Expensive
  | Moderate, _ | _, Moderate -> Moderate
  | Cheap, Cheap -> Cheap

let sweep_cost t ~cap ~candidates =
  let base = max_cost Moderate (predicted_cost t) in
  (* Measure the sweep in weight units and calibrate [cap] to weight-64
     (uncertified) items: an uncertified space past [cap] candidates is
     expensive, while a certified sweep — 1/64 the per-item work — admits
     a proportionally larger space before shedding.  This is what keeps
     large *certified* workloads on the warm path instead of spuriously
     classifying them [Expensive] on raw candidate count. *)
  let weighted = candidates *. (float_of_int (item_weight t) /. 64.) in
  if weighted > cap then Expensive else base

let cost_name = function
  | Cheap -> "cheap"
  | Moderate -> "moderate"
  | Expensive -> "expensive"

let engine_name = function
  | Datalog_saturation -> "datalog-saturation"
  | Chase_to_completion -> "chase-to-completion"
  | Budgeted_chase -> "budgeted-chase"

let pp_engine ppf e = Fmt.string ppf (engine_name e)

let pp ppf t =
  Fmt.pf ppf "engine: %a; certificate: %a; classes: %a" pp_engine t.engine
    Fmt.(option ~none:(any "none") Termination.pp_cert)
    t.cert
    Fmt.(list ~sep:(any ", ") Tgd_class.pp_cls)
    t.common_classes
