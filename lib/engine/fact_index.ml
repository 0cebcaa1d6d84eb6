open Tgd_syntax

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

module Const_tbl = Hashtbl.Make (struct
  type t = Constant.t

  let equal = Constant.equal
  let hash = Hashtbl.hash
end)

module Rel_tbl = Hashtbl.Make (struct
  type t = Relation.t

  let equal = Relation.equal
  let hash = Hashtbl.hash
end)

(* A bucket is a growable array of fact ids in insertion order.  Rounds
   are non-decreasing along fact ids (the engine inserts round r facts
   only during round r, and commits rounds in order), so an [up_to] bound
   selects a prefix found by binary search — bounded lookups never touch
   newer entries. *)
type bucket = { mutable ids : int array; mutable size : int }

type rel = {
  relation : Relation.t;
  arity : int;
  mutable data : int array;
      (* packed tuples: fact [i] is [data.(i*arity) … data.(i*arity+arity-1)] *)
  mutable rounds : int array;  (* the stamp of fact [i] *)
  mutable count : int;
  mutable table : int array;
      (* open addressing over fact ids, [-1] free; the length is a power
         of two at least twice [count] *)
  by_pos : bucket Int_tbl.t array;  (* per position, keyed by constant id *)
  mutable committed : int;  (* [count] at the last commit *)
  mutable delta_lo : int;
  mutable delta_hi : int;
}

(* Everything a [with_stats] view shares.  Inserts happen only in the
   engine's sequential fire phase, never while match tasks probe. *)
type store = {
  ids : int Const_tbl.t;
  mutable consts : Constant.t array;
  mutable n_consts : int;
  rels : rel Rel_tbl.t;
  mutable rel_list : rel list;
  mutable facts : int;
}

type t = { store : store; stats : Stats.t }

let create ?(stats = Stats.create ()) () =
  { store =
      { ids = Const_tbl.create 64;
        consts = [||];
        n_consts = 0;
        rels = Rel_tbl.create 16;
        rel_list = [];
        facts = 0
      };
    stats
  }

let with_stats idx stats = { idx with stats }
let fact_count idx = idx.store.facts
let probe idx = idx.stats.Stats.probes <- idx.stats.Stats.probes + 1

(* ---- interned constants ---- *)

let fresh idx c =
  let s = idx.store in
  let i = s.n_consts in
  if i = Array.length s.consts then begin
    let arr = Array.make (max 64 (2 * i)) c in
    Array.blit s.consts 0 arr 0 i;
    s.consts <- arr
  end;
  s.consts.(i) <- c;
  s.n_consts <- i + 1;
  i

let intern idx c =
  match Const_tbl.find_opt idx.store.ids c with
  | Some i -> i
  | None ->
    let i = fresh idx c in
    Const_tbl.add idx.store.ids c i;
    i

let constant idx i = idx.store.consts.(i)

(* ---- relation records ---- *)

let find_relation idx r = Rel_tbl.find_opt idx.store.rels r

let relation idx r =
  match find_relation idx r with
  | Some rel -> rel
  | None ->
    let arity = Relation.arity r in
    let rel =
      { relation = r;
        arity;
        data = Array.make (4 * arity) 0;
        rounds = Array.make 4 0;
        count = 0;
        table = Array.make 8 (-1);
        by_pos = Array.init arity (fun _ -> Int_tbl.create 8);
        committed = 0;
        delta_lo = 0;
        delta_hi = 0
      }
    in
    Rel_tbl.add idx.store.rels r rel;
    idx.store.rel_list <- rel :: idx.store.rel_list;
    rel

let relations idx = idx.store.rel_list
let rel_relation r = r.relation
let arg r id pos = r.data.((id * r.arity) + pos)
let rel_size r = r.count
let delta r = (r.delta_lo, r.delta_hi)

let to_fact idx r tuple =
  Fact.make_arr r.relation (Array.map (constant idx) tuple)

let fact idx r id =
  Fact.make_arr r.relation (Array.init r.arity (fun p -> constant idx (arg r id p)))

(* ---- the tuple table ---- *)

let hash_at arr off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 31) + arr.(i)
  done;
  let h = !h * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let same_tuple r id tuple =
  let off = id * r.arity in
  let rec go p = p = r.arity || (r.data.(off + p) = tuple.(p) && go (p + 1)) in
  go 0

(* The slot holding the tuple's fact id, or the free slot where it would
   go. *)
let slot_of r tuple =
  let mask = Array.length r.table - 1 in
  let rec go i =
    let id = r.table.(i) in
    if id < 0 || same_tuple r id tuple then i else go ((i + 1) land mask)
  in
  go (hash_at tuple 0 r.arity land mask)

let grow_table r =
  let cap = 2 * Array.length r.table in
  let table = Array.make cap (-1) in
  let mask = cap - 1 in
  for id = 0 to r.count - 1 do
    let rec go i =
      if table.(i) < 0 then table.(i) <- id else go ((i + 1) land mask)
    in
    go (hash_at r.data (id * r.arity) r.arity land mask)
  done;
  r.table <- table

let find r tuple = r.table.(slot_of r tuple)

(* ---- inserts and the round barrier ---- *)

let grow arr len fill =
  let a = Array.make (max 4 (2 * len)) fill in
  Array.blit arr 0 a 0 len;
  a

let bucket_push tbl c id =
  match Int_tbl.find_opt tbl c with
  | None -> Int_tbl.add tbl c { ids = Array.make 4 id; size = 1 }
  | Some b ->
    if b.size = Array.length b.ids then b.ids <- grow b.ids b.size 0;
    b.ids.(b.size) <- id;
    b.size <- b.size + 1

let add idx r ~round tuple =
  let slot = slot_of r tuple in
  if r.table.(slot) >= 0 then false
  else begin
    let id = r.count in
    let a = r.arity in
    if (id + 1) * a > Array.length r.data then r.data <- grow r.data (id * a) 0;
    Array.blit tuple 0 r.data (id * a) a;
    if id = Array.length r.rounds then r.rounds <- grow r.rounds id 0;
    r.rounds.(id) <- round;
    r.count <- id + 1;
    if 2 * r.count > Array.length r.table then grow_table r
    else r.table.(slot) <- id;
    for pos = 0 to a - 1 do
      bucket_push r.by_pos.(pos) tuple.(pos) id
    done;
    idx.store.facts <- idx.store.facts + 1;
    true
  end

let commit idx =
  List.iter
    (fun r ->
      r.delta_lo <- r.committed;
      r.delta_hi <- r.count;
      r.committed <- r.count)
    idx.store.rel_list

(* ---- probes ---- *)

(* Number of leading facts with stamp <= up_to among the first [n] of a
   bucket, or of the whole relation (stamps are monotone in both). *)
let bucket_prefix rounds ids n up_to =
  if n = 0 || rounds.(ids.(0)) > up_to then 0
  else if rounds.(ids.(n - 1)) <= up_to then n
  else begin
    (* rounds.(ids.(lo)) <= up_to < rounds.(ids.(hi)) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if rounds.(ids.(mid)) <= up_to then lo := mid else hi := mid
    done;
    !lo + 1
  end

let rel_prefix rounds n up_to =
  if n = 0 || rounds.(0) > up_to then 0
  else if rounds.(n - 1) <= up_to then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if rounds.(mid) <= up_to then lo := mid else hi := mid
    done;
    !lo + 1
  end

let derived r = (rel_prefix r.rounds r.count 0, r.count)

let mem_up_to idx r ~up_to tuple =
  probe idx;
  let id = find r tuple in
  id >= 0 && r.rounds.(id) <= up_to

let lookup idx r ~up_to ~pos c =
  probe idx;
  match Int_tbl.find_opt r.by_pos.(pos) c with
  | None -> ([||], 0)
  | Some b -> (b.ids, bucket_prefix r.rounds b.ids b.size up_to)

let all idx r ~up_to =
  probe idx;
  rel_prefix r.rounds r.count up_to

let bucket_size r ~pos c =
  match Int_tbl.find_opt r.by_pos.(pos) c with Some b -> b.size | None -> 0
