open Tgd_syntax
open Tgd_instance

(* Decoded bytes can break a smart constructor's invariant (an empty name,
   clashing arities, a constant in a tgd); that is corrupt input too. *)
let valid f x = try f x with Invalid_argument m -> raise (Wire.Corrupt m)

(* Every constant and term takes at least one byte, so a decoded arity
   beyond the bytes left is corrupt — checked before allocating for it. *)
let check_arity r rel =
  if Relation.arity rel > Wire.remaining r then
    raise
      (Wire.Corrupt
         (Printf.sprintf "arity %d exceeds remaining input (offset %d)"
            (Relation.arity rel) (Wire.pos r)))

(* ------------------------------------------------------------------ *)
(* Constants                                                           *)
(* ------------------------------------------------------------------ *)

let rec write_constant buf = function
  | Constant.Named s ->
    Buffer.add_char buf '\000';
    Wire.write_string buf s
  | Constant.Indexed i ->
    Buffer.add_char buf '\001';
    Wire.write_varint buf i
  | Constant.Pair (a, b) ->
    Buffer.add_char buf '\002';
    write_constant buf a;
    write_constant buf b
  | Constant.Null i ->
    Buffer.add_char buf '\003';
    Wire.write_varint buf i

let rec read_constant r =
  match Wire.read_varint r with
  | 0 -> Constant.named (Wire.read_string r)
  | 1 -> Constant.indexed (Wire.read_varint r)
  | 2 ->
    let a = read_constant r in
    let b = read_constant r in
    Constant.pair a b
  | 3 -> Constant.null (Wire.read_varint r)
  | t -> raise (Wire.Corrupt (Printf.sprintf "bad constant tag %d" t))

(* ------------------------------------------------------------------ *)
(* Relations and schemas                                               *)
(* ------------------------------------------------------------------ *)

let write_relation buf rel =
  Wire.write_string buf (Relation.name rel);
  Wire.write_varint buf (Relation.arity rel)

let read_relation r =
  let name = Wire.read_string r in
  let arity = Wire.read_varint r in
  valid (Relation.make name) arity

let write_schema buf schema =
  let rels = Schema.relations schema in
  Wire.write_varint buf (List.length rels);
  List.iter (write_relation buf) rels

let read_schema r =
  let n = Wire.read_varint r in
  valid Schema.make (List.init n (fun _ -> read_relation r))

(* ------------------------------------------------------------------ *)
(* Facts relative to a schema                                          *)
(* ------------------------------------------------------------------ *)

type rel_writer = (Relation.t, int) Hashtbl.t
type rel_reader = Relation.t array

let rel_writer schema =
  let t = Hashtbl.create 16 in
  List.iteri (fun i rel -> Hashtbl.replace t rel i) (Schema.relations schema);
  t

let rel_reader schema = Array.of_list (Schema.relations schema)

let write_fact w buf f =
  let rel = Fact.rel f in
  (match Hashtbl.find_opt w rel with
  | Some i -> Wire.write_varint buf (i + 1)
  | None ->
    (* a relation outside the schema the table was built from: inline it *)
    Wire.write_varint buf 0;
    write_relation buf rel);
  Array.iter (write_constant buf) (Fact.tuple_arr f)

let read_fact rr r =
  let rel =
    match Wire.read_varint r with
    | 0 -> read_relation r
    | i when i <= Array.length rr -> rr.(i - 1)
    | i ->
      raise
        (Wire.Corrupt
           (Printf.sprintf "relation index %d out of range (%d relations)" i
              (Array.length rr)))
  in
  check_arity r rel;
  Fact.make_arr rel (Array.init (Relation.arity rel) (fun _ -> read_constant r))

let write_facts w buf facts =
  Wire.write_varint buf (List.length facts);
  List.iter (write_fact w buf) facts

let read_facts rr r =
  let n = Wire.read_varint r in
  List.init n (fun _ -> read_fact rr r)

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

let write_instance buf inst =
  let schema = Instance.schema inst in
  write_schema buf schema;
  let dom = Constant.Set.elements (Instance.dom inst) in
  Wire.write_varint buf (List.length dom);
  List.iter (write_constant buf) dom;
  write_facts (rel_writer schema) buf (Instance.fact_list inst)

let read_instance r =
  let schema = read_schema r in
  let ndom = Wire.read_varint r in
  let dom = List.init ndom (fun _ -> read_constant r) in
  let facts = read_facts (rel_reader schema) r in
  let extras =
    List.filter (fun f -> not (Schema.mem schema (Fact.rel f))) facts
    |> List.map Fact.rel
  in
  let schema =
    if extras = [] then schema else valid (Schema.extend schema) extras
  in
  Instance.of_facts ~dom schema facts

(* ------------------------------------------------------------------ *)
(* Tgds                                                                *)
(* ------------------------------------------------------------------ *)

let write_term buf = function
  | Term.Var v ->
    Buffer.add_char buf '\000';
    Wire.write_string buf (Variable.name v)
  | Term.Const c ->
    Buffer.add_char buf '\001';
    write_constant buf c

let read_term r =
  match Wire.read_varint r with
  | 0 -> Term.var (valid Variable.make (Wire.read_string r))
  | 1 -> Term.const (read_constant r)
  | t -> raise (Wire.Corrupt (Printf.sprintf "bad term tag %d" t))

let write_atom buf a =
  write_relation buf (Atom.rel a);
  Array.iter (write_term buf) (Atom.args_arr a)

let read_atom r =
  let rel = read_relation r in
  check_arity r rel;
  Atom.make_arr rel (Array.init (Relation.arity rel) (fun _ -> read_term r))

let write_atoms buf atoms =
  Wire.write_varint buf (List.length atoms);
  List.iter (write_atom buf) atoms

let read_atoms r =
  let n = Wire.read_varint r in
  List.init n (fun _ -> read_atom r)

let write_tgd buf tgd =
  write_atoms buf (Tgd.body tgd);
  write_atoms buf (Tgd.head tgd)

let read_tgd r =
  let body = read_atoms r in
  let head = read_atoms r in
  valid (fun head -> Tgd.make ~body ~head) head
