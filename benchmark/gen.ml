(* Seeded inputs and their expected answers.

   The seed drives relation renaming, rule order and request order; the
   program receives only the generated text.  Expected answers are fixed
   once per renaming-invariant template — by construction or by the
   naive-chase oracle — and stored under benchmark/golden/.  A response is
   checked by un-renaming it and comparing with the template's answer, so
   nothing is recomputed while a phase is timed. *)

module Json = Tgd_serve.Json
open Tgd_syntax

(* ---- templates ------------------------------------------------------ *)

(* Rule text with the relation names cut out as slots. *)
type piece = Lit of string | Rel of int

type template = {
  rels : string array;  (** template relation names, indexed by slot *)
  rules : piece list array;  (** one per rule, each ending in "." *)
}

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Rewrite every identifier of [text] with [f]. *)
let map_idents f text =
  let n = String.length text in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if is_ident_start text.[!i] then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char text.[!j] do incr j done;
      Buffer.add_string b (f (String.sub text !i (!j - !i)));
      i := !j
    end
    else begin
      Buffer.add_char b text.[!i];
      incr i
    end
  done;
  Buffer.contents b

let pieces rels text =
  let slot = Hashtbl.create (Array.length rels) in
  Array.iteri (fun j r -> Hashtbl.replace slot r j) rels;
  let out = ref [] in
  let marker = "\x00" in
  (* identifiers that name relations become slots; the rest stays text *)
  let cut =
    map_idents
      (fun id ->
        match Hashtbl.find_opt slot id with
        | Some j -> marker ^ string_of_int j ^ marker
        | None -> id)
      text
  in
  List.iteri
    (fun k part ->
      if k mod 2 = 1 then out := Rel (int_of_string part) :: !out
      else if part <> "" then out := Lit part :: !out)
    (String.split_on_char '\x00' cut);
  List.rev !out

let render names ps =
  let b = Buffer.create 256 in
  List.iter
    (function Lit s -> Buffer.add_string b s | Rel j -> Buffer.add_string b names.(j))
    ps;
  Buffer.contents b

let template_of_tgds tgds =
  let seen = Hashtbl.create 64 and rels = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun a ->
          let r = Relation.name (Atom.rel a) in
          if not (Hashtbl.mem seen r) then begin
            Hashtbl.add seen r ();
            rels := r :: !rels
          end)
        (Tgd.body t @ Tgd.head t))
    tgds;
  let rels = Array.of_list (List.rev !rels) in
  { rels;
    rules =
      Array.of_list (List.map (fun t -> pieces rels (Tgd.to_string t ^ ".")) tgds)
  }

let text_of_tgds tgds = String.concat " " (List.map (fun t -> Tgd.to_string t ^ ".") tgds)

let facts_text inst =
  Tgd_instance.Instance.fact_list inst
  |> List.map (fun f -> Fact.to_string f ^ ".")
  |> String.concat " "

(* ---- renaming -------------------------------------------------------- *)

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

let rand_chars rng n = String.init n (fun _ -> alphabet.[Random.State.int rng 36])

let base36 width i =
  String.init width (fun k ->
      let rec digit i k = if k = 0 then i mod 36 else digit (i / 36) (k - 1) in
      alphabet.[digit i (width - 1 - k)])

(* Fresh names for a template's slots.  Every name has the same length,
   so hashing and printing cost the same under every seed, and it ends in
   its slot number, so a response un-renames without a table. *)
let name_len = 12

let fresh_names rng ~tag n =
  Array.init n (fun j -> Printf.sprintf "Q%s%s%03d" tag (rand_chars rng 4) j)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The template's rules under [names], in a seeded order. *)
let ontology rng t names =
  shuffle rng t.rules |> Array.to_list |> List.map (render names) |> String.concat " "

let is_null_name id =
  String.length id > 2
  && id.[0] = '_'
  && id.[1] = 'n'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub id 2 (String.length id - 2))

(* Map renamed relations back to template names and every labelled null
   to "_", so a response compares with its template's answer. *)
let unrename rels names text =
  map_idents
    (fun id ->
      if String.length id = name_len && id.[0] = 'Q' then
        match int_of_string_opt (String.sub id 9 3) with
        | Some j when j < Array.length names && String.equal names.(j) id -> rels.(j)
        | _ -> id
      else if is_null_name id then "_"
      else id)
    text

(* ---- golden answers ---------------------------------------------------- *)

let golden_dir = "benchmark/golden"
let golden_path name = Filename.concat golden_dir (name ^ ".json")

let load_golden name =
  let path = golden_path name in
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "%s missing (regenerate with: run.exe golden)" path);
  Harness.load_json path

let lookup j keys =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None ->
        failwith
          (Printf.sprintf "golden answer %S missing (regenerate with: run.exe golden)"
             (String.concat "/" keys)))
    j keys

let oracle_entails tgds goal =
  Tgd_chase.Entailment.entails ~naive:true ~memo:false (Tgd_parse.Parse.tgds_exn tgds)
    (Tgd_parse.Parse.tgd_exn goal)
  |> Tgd_chase.Entailment.answer_to_string

(* ---- serve_warm: renamed chain ontologies ------------------------------ *)

let chain_rules = [| "E(x,y) -> S(y)."; "S(x) -> T(x)." |]

let chain_goal k =
  String.concat ", " (List.init k (fun j -> Printf.sprintf "E(x%d,x%d)" j (j + 1)))
  ^ Printf.sprintf " -> T(x%d)." k

(* Three goals the chain proves and one it does not. *)
let chain_goals = [| chain_goal 1; chain_goal 2; chain_goal 3; "E(x0,x1) -> T(x0)." |]

let warm_ontologies = 8
let ring_size = 4096

type warm = {
  lines : string array;  (** request lines, cycled by every connection *)
  expected : string array;  (** the exact response line each must get *)
  distinct : int;
}

let entail_line ~id ~tgds ~goal =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int id);
         ("op", Json.String "entail");
         ("tgds", Json.String tgds);
         ("goal", Json.String goal)
       ])

let answer_line ~id answer =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int id);
         ("ok", Json.Bool true);
         ("result", Json.Obj [ ("answer", Json.String answer) ])
       ])

let serve_warm ~seed =
  let golden = load_golden "serve_warm" in
  let rng = Random.State.make [| seed; 1 |] in
  let rels = [| "E"; "S"; "T" |] in
  let t = { rels; rules = Array.map (pieces rels) chain_rules } in
  let combos =
    Array.init warm_ontologies (fun _ ->
        let names = fresh_names rng ~tag:(rand_chars rng 4) (Array.length rels) in
        let tgds = ontology rng t names in
        Array.map
          (fun g ->
            ( tgds,
              render names (pieces rels g),
              Json.as_string (lookup golden [ "entail"; g ]) |> Option.get ))
          chain_goals)
    |> Array.to_list |> Array.concat
  in
  let n = Array.length combos in
  (* request order: consecutive blocks, each a fresh shuffle of every
     distinct request *)
  let order =
    Array.concat (List.init (ring_size / n) (fun _ -> shuffle rng (Array.init n Fun.id)))
  in
  { lines =
      Array.mapi
        (fun id c ->
          let tgds, goal, _ = combos.(c) in
          entail_line ~id ~tgds ~goal)
        order;
    expected =
      Array.mapi
        (fun id c ->
          let _, _, answer = combos.(c) in
          answer_line ~id answer)
        order;
    distinct = n
  }

let serve_warm_golden () =
  let tgds = String.concat " " (Array.to_list chain_rules) in
  Json.Obj
    [ ("tgds", Json.String tgds);
      ( "entail",
        Json.Obj
          (Array.to_list chain_goals
          |> List.map (fun g -> (g, Json.String (oracle_entails tgds g)))) )
    ]

(* ---- fleet_cold: a never-seen ontology per request ---------------------- *)

let cold_tgds = Tgd_workload.Families.layered_existential ~copies:1 ~depth:3
let cold_template = template_of_tgds cold_tgds

(* Four goals the gadget proves and four it does not. *)
let cold_goals =
  [| "R0L0(x,y) -> T0L0(x).";
     "R0L0(x,y) -> P0L1(y).";
     "R0L0(x,y) -> exists z. E0L3(y,z).";
     "R0L1(x,y) -> T0L2(y).";
     "R0L0(x,y) -> T0L1(x).";
     "R0L1(x,y) -> P0L0(x).";
     "P0L0(x) -> T0L0(x).";
     "R0L2(x,y) -> E0L3(x,y)."
  |]

let cold_chains = [| 2; 3; 4; 5 |]

let cold_facts chain =
  facts_text (Tgd_workload.Families.layered_instance ~copies:1 ~depth:3 ~chain)

type cold_kind =
  | Entail of string  (** expected answer *)
  | Chase of (int * string list)  (** fact count and un-renamed sorted facts *)
  | Analyze of string  (** report signature *)
  | Classify of string  (** classification signature *)

type cold = { id : int; line : string; kind : cold_kind; names : string array }

let unrename_sorted rels names facts =
  List.map (unrename rels names) facts |> List.sort String.compare

let strings j = match j with Json.List l -> List.filter_map Json.as_string l | _ -> []

(* The parts of an analyze report that survive renaming and rule order:
   not the strata (rule indices) nor diagnostic messages (names). *)
let analyze_signature result =
  let field k = Option.fold ~none:"-" ~some:Json.to_string (Json.member k result) in
  let verdicts =
    match Json.member "lattice" result with
    | Some (Json.Obj notions) ->
      List.filter_map
        (fun (k, v) ->
          Option.map (fun v -> k ^ "=" ^ Json.to_string v) (Json.member "verdict" v))
        notions
    | _ -> []
  in
  let codes =
    match Json.member "diagnostics" result with
    | Some (Json.List ds) ->
      List.filter_map (fun d -> Option.bind (Json.member "code" d) Json.as_string) ds
      |> List.sort String.compare
    | _ -> []
  in
  String.concat ";"
    (List.map field
       [ "certificate"; "engine"; "rules"; "classes"; "sccs"; "strata_depth"; "exit_code" ]
    @ verdicts @ codes)

let classify_signature result =
  let field k j = Option.fold ~none:"-" ~some:Json.to_string (Json.member k j) in
  let per_tgd =
    match Json.member "tgds" result with
    | Some (Json.List ts) ->
      List.map (fun t -> String.concat "," [ field "classes" t; field "n" t; field "m" t ]) ts
      |> List.sort String.compare
    | _ -> []
  in
  String.concat ";" (field "n" result :: field "m" result :: per_tgd)

let fleet_cold_golden () =
  let rels = cold_template.rels in
  let tgds = text_of_tgds cold_tgds in
  let handle req =
    match Json.member "result" (Tgd_serve.Server.handle Tgd_serve.Server.default_config req) with
    | Some r -> r
    | None -> failwith "golden: template request failed"
  in
  let op name = Json.Obj [ ("op", Json.String name); ("tgds", Json.String tgds) ] in
  Json.Obj
    [ ( "entail",
        Json.Obj
          (Array.to_list cold_goals
          |> List.map (fun g -> (g, Json.String (oracle_entails tgds g)))) );
      ( "chase",
        Json.Obj
          (Array.to_list cold_chains
          |> List.map (fun chain ->
                 let r =
                   Tgd_chase.Chase.restricted ~naive:true (Tgd_parse.Parse.tgds_exn tgds)
                     (Tgd_workload.Families.layered_instance ~copies:1 ~depth:3 ~chain)
                 in
                 let facts =
                   Tgd_instance.Instance.fact_list r.Tgd_chase.Chase.instance
                   |> List.map Fact.to_string
                   |> unrename_sorted rels rels
                 in
                 ( string_of_int chain,
                   Json.Obj
                     [ ("fact_count", Json.Int (List.length facts));
                       ("facts", Json.List (List.map (fun f -> Json.String f) facts))
                     ] ))) );
      ("analyze", Json.String (analyze_signature (handle (op "analyze"))));
      ("classify", Json.String (classify_signature (handle (op "classify"))))
    ]

type cold_golden = {
  goal_answers : string array;
  chases : (int * string list) array;
  analyze : string;
  classify : string;
}

let load_cold_golden () =
  let g = load_golden "fleet_cold" in
  let str keys = Option.get (Json.as_string (lookup g keys)) in
  { goal_answers = Array.map (fun goal -> str [ "entail"; goal ]) cold_goals;
    chases =
      Array.map
        (fun chain ->
          let c = lookup g [ "chase"; string_of_int chain ] in
          (Harness.int_exn "fact_count" c, strings (lookup c [ "facts" ])))
        cold_chains;
    analyze = str [ "analyze" ];
    classify = str [ "classify" ]
  }

let cold_goal_pieces = Array.map (pieces cold_template.rels) cold_goals
let cold_fact_pieces = Array.map (fun c -> pieces cold_template.rels (cold_facts c)) cold_chains

(* Request [i] of a seed's stream: its own renaming (the request index is
   part of every name, so no two requests share an ontology), its own
   rule order, and an op drawn 50/25/15/10 from entail/chase/analyze/
   classify. *)
let cold_request g ~seed i =
  let rng = Random.State.make [| seed; 2; i |] in
  let t = cold_template in
  let names = fresh_names rng ~tag:(base36 4 i) (Array.length t.rels) in
  let tgds = ontology rng t names in
  let u = Random.State.int rng 100 in
  let field k v = (k, Json.String v) in
  let fields, kind =
    if u < 50 then
      let k = Random.State.int rng (Array.length cold_goals) in
      ( [ field "op" "entail"; field "tgds" tgds;
          field "goal" (render names cold_goal_pieces.(k)) ],
        Entail g.goal_answers.(k) )
    else if u < 75 then
      let k = Random.State.int rng (Array.length cold_chains) in
      ( [ field "op" "chase"; field "tgds" tgds;
          field "facts" (render names cold_fact_pieces.(k)) ],
        Chase g.chases.(k) )
    else if u < 90 then ([ field "op" "analyze"; field "tgds" tgds ], Analyze g.analyze)
    else ([ field "op" "classify"; field "tgds" tgds ], Classify g.classify)
  in
  { id = i; line = Json.to_string (Json.Obj (("id", Json.Int i) :: fields)); kind; names }

let check_cold (r : cold) line =
  match Json.of_string line with
  | Error _ -> false
  | Ok resp -> (
    Json.member "id" resp = Some (Json.Int r.id)
    && Json.member "ok" resp = Some (Json.Bool true)
    &&
    match Json.member "result" resp with
    | None -> false
    | Some result -> (
      match r.kind with
      | Entail answer -> Json.member "answer" result = Some (Json.String answer)
      | Chase (count, facts) ->
        Json.member "outcome" result = Some (Json.String "terminated")
        && Json.member "fact_count" result = Some (Json.Int count)
        && unrename_sorted cold_template.rels r.names
             (strings (Option.value (Json.member "facts" result) ~default:Json.Null))
           = facts
      | Analyze s -> analyze_signature result = s
      | Classify s -> classify_signature result = s))

(* ---- rewrite_layered: Algorithm 1 on a renamed layered ontology -------- *)

let rewrite_tgds = Tgd_workload.Families.layered ~copies:4 ~depth:3
let rewrite_template = template_of_tgds rewrite_tgds

let rewrite_config ~jobs ~naive =
  let d = Tgd_core.Rewrite.default_config in
  { d with
    jobs;
    naive;
    caps = { d.Tgd_core.Rewrite.caps with Tgd_core.Candidates.max_head_atoms = 1 }
  }

type lib_input = { tgds : string; facts : string; names : string array }

let rewrite_input ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let t = rewrite_template in
  let names = fresh_names rng ~tag:(rand_chars rng 4) (Array.length t.rels) in
  { tgds = ontology rng t names; facts = ""; names }

type rewrite_golden = { rewriting : string list; enumerated : int; entailed : int }

let rewrite_summary rels names (report : Tgd_core.Rewrite.report) =
  match report.Tgd_core.Rewrite.outcome with
  | Tgd_core.Rewrite.Rewritable sigma ->
    Some
      { rewriting = List.map Tgd.to_string sigma |> unrename_sorted rels names;
        enumerated = report.Tgd_core.Rewrite.candidates_enumerated;
        entailed = report.Tgd_core.Rewrite.candidates_entailed
      }
  | _ -> None

let rewrite_layered_golden () =
  match
    Tgd_core.Rewrite.g_to_l ~config:(rewrite_config ~jobs:1 ~naive:true) rewrite_tgds
  with
  | Tgd_engine.Budget.Complete report -> (
    let rels = rewrite_template.rels in
    match rewrite_summary rels rels report with
    | Some s ->
      Json.Obj
        [ ("outcome", Json.String "rewritable");
          ("tgds", Json.List (List.map (fun t -> Json.String t) s.rewriting));
          ("candidates_enumerated", Json.Int s.enumerated);
          ("candidates_entailed", Json.Int s.entailed)
        ]
    | None -> failwith "golden: layered ontology did not rewrite")
  | _ -> failwith "golden: rewrite truncated"

let load_rewrite_golden () =
  let g = load_golden "rewrite_layered" in
  { rewriting = strings (lookup g [ "tgds" ]);
    enumerated = Harness.int_exn "candidates_enumerated" g;
    entailed = Harness.int_exn "candidates_entailed" g
  }

(* ---- chase_layered: the restricted chase on a renamed layered set ----- *)

let chase_tgds = Tgd_workload.Families.layered_existential ~copies:16 ~depth:4
let chase_db () = Tgd_workload.Families.layered_instance ~copies:16 ~depth:4 ~chain:24
let chase_template = template_of_tgds chase_tgds
let chase_fact_pieces = lazy (pieces chase_template.rels (facts_text (chase_db ())))

let chase_input ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let t = chase_template in
  let names = fresh_names rng ~tag:(rand_chars rng 4) (Array.length t.rels) in
  { tgds = ontology rng t names; facts = render names (Lazy.force chase_fact_pieces); names }

(* Fact count and a digest of the un-renamed, null-abstracted facts. *)
let chase_summary rels names inst =
  let facts =
    Tgd_instance.Instance.fact_list inst |> List.map Fact.to_string |> unrename_sorted rels names
  in
  (List.length facts, Digest.to_hex (Digest.string (String.concat "\n" facts)))

let chase_layered_golden () =
  let r = Tgd_chase.Chase.restricted ~naive:true chase_tgds (chase_db ()) in
  let rels = chase_template.rels in
  let count, digest = chase_summary rels rels r.Tgd_chase.Chase.instance in
  Json.Obj [ ("fact_count", Json.Int count); ("facts_md5", Json.String digest) ]

let load_chase_golden () =
  let g = load_golden "chase_layered" in
  (Harness.int_exn "fact_count" g, Harness.string_exn "facts_md5" g)

(* Parse generated text the way the server does. *)
let parse_input (i : lib_input) =
  let sigma = Tgd_parse.Parse.tgds_exn i.tgds in
  let db =
    if i.facts = "" then None
    else
      let p = Tgd_parse.Parse.program_exn i.facts in
      Some
        (Tgd_instance.Instance.of_facts
           (Schema.union (Tgd_core.Rewrite.schema_of sigma) p.Tgd_parse.Parse.schema)
           p.Tgd_parse.Parse.facts)
  in
  (sigma, db)

(* ---- golden files ------------------------------------------------------- *)

let goldens =
  [ ("serve_warm", serve_warm_golden);
    ("fleet_cold", fleet_cold_golden);
    ("rewrite_layered", rewrite_layered_golden);
    ("chase_layered", chase_layered_golden)
  ]

(* Recompute every golden file with the oracles; with [check] compare
   with the stored files instead of writing them.  Returns the names of
   files that differ. *)
let regenerate ~check =
  List.filter_map
    (fun (name, f) ->
      let text = Json.to_string (f ()) ^ "\n" in
      let path = golden_path name in
      if check then
        if Sys.file_exists path && Harness.read_file path = text then None else Some name
      else begin
        Harness.mkdir_p golden_dir;
        Harness.write_file path text;
        None
      end)
    goldens
