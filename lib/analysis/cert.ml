open Tgd_syntax

(* Proof-carrying termination certificates.  Each constructor carries the
   machine-checkable witness of its notion; {!to_string} renders the
   versioned wire format that {!Certcheck} verifies with fully independent
   code (the format below is the only contract between the two). *)

type t =
  | Weak of { edges : (Relation.t * int * Relation.t * int * bool) list }
  | Joint of { movement : (int * string * (Relation.t * int) list) list }
  | Super_weak of { moves : (int * (int * int * int) list) list }
  | Model_summarising of { model : Fact.t list }
  | Model_faithful of {
      model : Fact.t list;
      creation : (Constant.t * Critical_chase.creation) list;
    }
  | Stratified of { strata : int list list; subs : t list }

let notion = function
  | Weak _ -> Termination.Weakly_acyclic
  | Joint _ -> Termination.Jointly_acyclic
  | Super_weak _ -> Termination.Super_weakly_acyclic
  | Model_summarising _ -> Termination.Model_summarising
  | Model_faithful _ -> Termination.Model_faithful
  | Stratified _ -> Termination.Stratified

(* Certificates are bound to the rule set by a digest over the sorted
   canonical rule texts — order-independent, renaming-sensitive (the
   checker re-parses the same source, so renaming insensitivity is not
   needed). *)
let sigma_digest sigma =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.sort String.compare (List.map Tgd.to_string sigma))))

let no_space s =
  if String.exists (fun c -> c = ' ' || c = '\n' || c = '\t') s then
    invalid_arg ("certificate token contains whitespace: " ^ s)
  else s

let const_token = function
  | Constant.Named s -> "n:" ^ no_space s
  | Constant.Indexed i -> "i:" ^ string_of_int i
  | Constant.Null i -> "N:" ^ string_of_int i
  | Constant.Pair _ -> invalid_arg "certificate constants cannot be products"

let fact_line buf f =
  Buffer.add_string buf "fact ";
  Buffer.add_string buf (no_space (Relation.name (Fact.rel f)));
  List.iter
    (fun c ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (const_token c))
    (Fact.tuple f);
  Buffer.add_char buf '\n'

let rec payload buf = function
  | Weak { edges } ->
    Buffer.add_string buf "notion weak\n";
    List.iter
      (fun (r1, p1, r2, p2, special) ->
        Buffer.add_string buf
          (Printf.sprintf "edge %s %d %s %d %s\n"
             (no_space (Relation.name r1))
             p1
             (no_space (Relation.name r2))
             p2
             (if special then "special" else "regular")))
      edges
  | Joint { movement } ->
    Buffer.add_string buf "notion joint\n";
    List.iter
      (fun (rule, exvar, positions) ->
        Buffer.add_string buf (Printf.sprintf "mov %d %s" rule (no_space exvar));
        List.iter
          (fun (r, p) ->
            Buffer.add_string buf
              (Printf.sprintf " %s:%d" (no_space (Relation.name r)) p))
          positions;
        Buffer.add_char buf '\n')
      movement
  | Super_weak { moves } ->
    Buffer.add_string buf "notion superweak\n";
    List.iter
      (fun (rule, places) ->
        Buffer.add_string buf (Printf.sprintf "move %d" rule);
        List.iter
          (fun (r, a, p) ->
            Buffer.add_string buf (Printf.sprintf " %d:%d:%d" r a p))
          places;
        Buffer.add_char buf '\n')
      moves
  | Model_summarising { model } ->
    Buffer.add_string buf "notion msa\n";
    List.iter (fact_line buf) (List.sort Fact.compare model)
  | Model_faithful { model; creation } ->
    Buffer.add_string buf "notion mfa\n";
    List.iter (fact_line buf) (List.sort Fact.compare model);
    List.iter
      (fun (c, cr) ->
        Buffer.add_string buf
          (Printf.sprintf "null %s %d %s" (const_token c)
             cr.Critical_chase.c_rule
             (no_space cr.Critical_chase.c_exvar));
        List.iter
          (fun a ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (const_token a))
          cr.Critical_chase.c_args;
        Buffer.add_char buf '\n')
      creation
  | Stratified { strata; subs } ->
    Buffer.add_string buf "notion stratified\n";
    List.iter
      (fun rules ->
        Buffer.add_string buf "stratum";
        List.iter (fun i -> Buffer.add_string buf (" " ^ string_of_int i)) rules;
        Buffer.add_char buf '\n')
      strata;
    List.iteri
      (fun i sub ->
        Buffer.add_string buf (Printf.sprintf "sub %d\n" i);
        payload buf sub;
        Buffer.add_string buf "endsub\n")
      subs

let to_string sigma t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "tgdcert v1\n";
  Buffer.add_string buf
    (Printf.sprintf "rules %d %s\n" (List.length sigma) (sigma_digest sigma));
  payload buf t;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let to_file path sigma t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sigma t))
