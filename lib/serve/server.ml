open Tgd_syntax
open Tgd_instance
module Budget = Tgd_engine.Budget
module Chaos = Tgd_engine.Chaos
module Memo = Tgd_engine.Memo
module Chase = Tgd_chase.Chase
module Entailment = Tgd_chase.Entailment
module Rewrite = Tgd_core.Rewrite
module Candidates = Tgd_core.Candidates
module Parse = Tgd_parse.Parse

type config = {
  rounds : int;
  max_facts : int;
  timeout_s : float option;
  retries : int;
  backoff_base_s : float;
  queue_limit : int;
  max_line_bytes : int;
  checkpoint_dir : string option;
  checkpoint_every : int;
}

let default_config =
  { rounds = 64;
    max_facts = 20_000;
    timeout_s = None;
    retries = 3;
    backoff_base_s = 0.01;
    queue_limit = 64;
    max_line_bytes = Json.default_max_line_bytes;
    checkpoint_dir = None;
    checkpoint_every = 8
  }

(* A request that failed for a reason retrying can fix: an injected fault
   (directly, or surfaced as a typed [Fault] truncation by an engine run).
   Deterministic failures — bad input, genuine budget exhaustion — must
   never retry: they would fail identically [retries] more times. *)
exception Transient of string

exception Bad_request of string

(* ---- request plumbing -------------------------------------------- *)

let get field req =
  match Json.member field req with
  | Some v -> v
  | None -> raise (Bad_request (Printf.sprintf "missing %S" field))

let get_string field req =
  match Json.as_string (get field req) with
  | Some s -> s
  | None -> raise (Bad_request (Printf.sprintf "%S must be a string" field))

let get_int_opt field req =
  match Json.member field req with
  | None -> None
  | Some v -> (
    match Json.as_int v with
    | Some i -> Some i
    | None -> raise (Bad_request (Printf.sprintf "%S must be an integer" field)))

let parse_tgds src =
  match Parse.tgds src with
  | Ok tgds -> tgds
  | Error e -> raise (Bad_request (Fmt.str "tgds: %a" Parse.pp_error e))

let budget_of config req =
  let rounds = Option.value (get_int_opt "rounds" req) ~default:config.rounds in
  let facts =
    Option.value (get_int_opt "max_facts" req) ~default:config.max_facts
  in
  Budget.make ~rounds ~facts ?timeout_s:config.timeout_s ()

let tgd_string t = Fmt.str "%a" Tgd.pp t

(* ---- operations --------------------------------------------------- *)

let classify_op req =
  let sigma = parse_tgds (get_string "tgds" req) in
  let n, m = Rewrite.class_bounds sigma in
  Json.Obj
    [ ( "tgds",
        Json.List
          (List.map
             (fun t ->
               Json.Obj
                 [ ("tgd", Json.String (tgd_string t));
                   ( "classes",
                     Json.List
                       (List.map
                          (fun c ->
                            Json.String (Fmt.str "%a" Tgd_class.pp_cls c))
                          (Tgd_class.classify t)) );
                   ("n", Json.Int (Tgd.n_universal t));
                   ("m", Json.Int (Tgd.m_existential t))
                 ])
             sigma) );
      ("n", Json.Int n);
      ("m", Json.Int m)
    ]

let instance_of_request ~sigma req =
  let src = get_string "facts" req in
  match Parse.program src with
  | Error e -> raise (Bad_request (Fmt.str "facts: %a" Parse.pp_error e))
  | Ok p ->
    let schema = Schema.union (Rewrite.schema_of sigma) p.Parse.schema in
    Instance.of_facts schema p.Parse.facts

let chase_op config req =
  let tgds_src = get_string "tgds" req in
  let sigma = parse_tgds tgds_src in
  let db = instance_of_request ~sigma req in
  let budget = budget_of config req in
  let r =
    match config.checkpoint_dir with
    | None -> Chase.restricted ~budget sigma db
    | Some dir ->
      (* Durable mid-request progress: the chain is keyed on the request
         content, so the retry ladder (and a restarted server receiving
         the same request again) resumes the chase instead of refiring it
         from the input.  The chain is kept only across transient-fault
         retries; any terminal response removes it. *)
      let name =
        "req-"
        ^ Digest.to_hex
            (Digest.string (tgds_src ^ "\x00" ^ get_string "facts" req))
      in
      let log = Chase.log_config ~dir ~name () in
      let resume =
        match Chase.load_log log with
        | Ok v ->
          Option.iter
            (fun r ->
              List.iter
                (fun w -> Fmt.epr "serve: checkpoint warning: %s@." w)
                r.Chase.rz_warnings)
            v;
          v
        | Error _ ->
          (* self-heal: a request checkpoint with no verifiable base is
             recoverable state, not client data — drop it and start over *)
          Tgd_engine.Delta_log.remove log;
          None
      in
      let r =
        Chase.restricted_resumable ~budget ~every:config.checkpoint_every
          ~log ?resume sigma db
      in
      (match r.Chase.outcome with
      | Chase.Truncated (Budget.Fault _) -> ()
      | Chase.Truncated _ ->
        (* deterministic exhaustion: the truncated response is terminal,
           so the chain must not leak onto the next identical request *)
        Tgd_engine.Delta_log.remove log
      | Chase.Terminated -> ());
      r
  in
  (match r.Chase.outcome with
  | Chase.Truncated (Budget.Fault site) -> raise (Transient site)
  | _ -> ());
  let outcome, reason =
    match r.Chase.outcome with
    | Chase.Terminated -> ("terminated", None)
    | Chase.Truncated reason ->
      ("truncated", Some (Budget.exhaustion_to_string reason))
  in
  Json.Obj
    (List.concat
       [ [ ("outcome", Json.String outcome) ];
         (match reason with
         | Some r -> [ ("reason", Json.String r) ]
         | None -> []);
         [ ("rounds", Json.Int r.Chase.rounds);
           ("fired", Json.Int r.Chase.fired);
           ("fact_count", Json.Int (Instance.fact_count r.Chase.instance));
           ( "facts",
             Json.List
               (Instance.fact_list r.Chase.instance
               |> List.map Fact.to_string
               |> List.sort String.compare
               |> List.map (fun f -> Json.String f)) )
         ]
       ])

let entail_op config req =
  let sigma = parse_tgds (get_string "tgds" req) in
  let goal =
    let src = get_string "goal" req in
    try Parse.tgd_exn src
    with Failure msg -> raise (Bad_request ("goal: " ^ msg))
  in
  let budget = budget_of config req in
  let answer = Entailment.entails ~budget sigma goal in
  Json.Obj
    [ ( "answer",
        Json.String
          (match answer with
          | Entailment.Proved -> "proved"
          | Entailment.Disproved -> "disproved"
          | Entailment.Unknown -> "unknown") )
    ]

let rewrite_op config req =
  let sigma = parse_tgds (get_string "tgds" req) in
  let direction = get_string "direction" req in
  let caps =
    Candidates.
      { max_body_atoms =
          Option.value (get_int_opt "max_body_atoms" req) ~default:2;
        max_head_atoms =
          Option.value (get_int_opt "max_head_atoms" req) ~default:2;
        keep_tautologies = false
      }
  in
  let rconfig =
    { Rewrite.default_config with
      caps;
      budget = budget_of config req
    }
  in
  let run =
    match direction with
    | "g2l" -> Rewrite.g_to_l
    | "fg2g" -> Rewrite.fg_to_g
    | d ->
      raise
        (Bad_request
           (Printf.sprintf "unknown direction %S (expected g2l or fg2g)" d))
  in
  let outcome =
    try run ~config:rconfig sigma
    with Invalid_argument msg -> raise (Bad_request msg)
  in
  (match outcome with
  | Budget.Truncated { reason = Budget.Fault site; _ } ->
    raise (Transient site)
  | _ -> ());
  let report_fields (report : Rewrite.report) =
    [ ("candidates_enumerated", Json.Int report.Rewrite.candidates_enumerated);
      ("candidates_entailed", Json.Int report.Rewrite.candidates_entailed)
    ]
  in
  let outcome_fields (o : Rewrite.outcome) =
    match o with
    | Rewrite.Rewritable sigma' ->
      [ ("outcome", Json.String "rewritable");
        ("tgds", Json.List (List.map (fun t -> Json.String (tgd_string t)) sigma'))
      ]
    | Rewrite.Not_rewritable { complete; unknown_candidates } ->
      [ ("outcome", Json.String "not_rewritable");
        ("complete", Json.Bool complete);
        ("unknown_candidates", Json.Int unknown_candidates)
      ]
    | Rewrite.Unknown why ->
      [ ("outcome", Json.String "unknown"); ("reason", Json.String why) ]
  in
  match outcome with
  | Budget.Complete report ->
    Json.Obj (outcome_fields report.Rewrite.outcome @ report_fields report)
  | Budget.Truncated { reason; partial; _ } ->
    Json.Obj
      (("truncated", Json.String (Budget.exhaustion_to_string reason))
      :: outcome_fields partial.Rewrite.outcome
      @ report_fields partial)

(* Analysis is pure in the rule set, and the deep lattice notions may
   chase the critical instance — worth caching.  Keyed by the canonical
   ontology digest ([Memo.sigma_key]), so syntactic noise (whitespace,
   comments) in the request still hits. *)
let analyze_memo : string Memo.t = Memo.create ~name:"serve-analyze" ()

let analyze_op req =
  let sigma = parse_tgds (get_string "tgds" req) in
  let json =
    Memo.find_or_add analyze_memo (Memo.sigma_key sigma) (fun () ->
        Tgd_analysis.Analyze.to_json (Tgd_analysis.Analyze.run sigma))
  in
  match Json.of_string json with
  | Ok j -> j
  | Error msg -> failwith ("analyze report did not round-trip: " ^ msg)

let dispatch config op req =
  match op with
  | "classify" -> classify_op req
  | "chase" -> chase_op config req
  | "entail" -> entail_op config req
  | "rewrite" -> rewrite_op config req
  | "analyze" -> analyze_op req
  | op -> raise (Bad_request (Printf.sprintf "unknown op %S" op))

(* ---- responses ----------------------------------------------------- *)

let ok id result =
  Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error id code message =
  Json.Obj
    [ ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("code", Json.String code); ("message", Json.String message) ] )
    ]

let request_id req = Option.value (Json.member "id" req) ~default:Json.Null

let handle config req =
  let id = request_id req in
  match Json.member "op" req with
  | None -> error id "bad_request" "missing \"op\""
  | Some op_j -> (
    match Json.as_string op_j with
    | None -> error id "bad_request" "\"op\" must be a string"
    | Some op ->
      (* Retry ladder: transient faults (the [serve.request] chaos site, or
         a typed [Fault] truncation out of an engine run) get up to
         [retries] fresh attempts with exponential backoff; everything
         else is deterministic and answers immediately.  Every path ends
         in a terminal response — the loop cannot raise. *)
      let rec attempt k =
        match
          Chaos.step ~site:"serve.request";
          dispatch config op req
        with
        | result -> ok id result
        | exception Bad_request msg -> error id "bad_request" msg
        | exception Chaos.Injected site -> retry k site
        | exception Transient site -> retry k site
        | exception e -> error id "internal" (Printexc.to_string e)
      and retry k site =
        if k >= config.retries then
          error id "fault"
            (Printf.sprintf "injected fault at %s after %d attempts" site
               (k + 1))
        else begin
          Unix.sleepf (config.backoff_base_s *. (2. ** float_of_int k));
          attempt (k + 1)
        end
      in
      attempt 0)
