open Tgd_syntax

type entry = { fact : Fact.t; round : int }

(* Buckets are growable arrays in insertion order.  Rounds are
   non-decreasing along a bucket (the engine inserts round r facts only
   during round r, and commits rounds in order), so an [up_to] bound
   selects a prefix found by binary search — bounded lookups never touch
   newer entries. *)
type bucket = { mutable arr : entry array; mutable size : int }

(* (relation, position, constant)-keyed buckets, per-relation buckets and
   a stamp table, shared by every [with_stats] view; [pending] holds the
   facts added since the last [commit], newest first.  Inserts happen only
   in the engine's sequential fire phase, never while match tasks probe. *)
type t = {
  by_key : (Relation.t * int * Constant.t, bucket) Hashtbl.t;
  by_rel : (Relation.t, bucket) Hashtbl.t;
  stamps : (Fact.t, int) Hashtbl.t;
  pending : Fact.t list ref;
  stats : Stats.t;
}

let create ?(stats = Stats.create ()) () =
  { by_key = Hashtbl.create 256;
    by_rel = Hashtbl.create 16;
    stamps = Hashtbl.create 256;
    pending = ref [];
    stats
  }

let with_stats idx stats = { idx with stats }
let mem idx f = Hashtbl.mem idx.stamps f
let round_of idx f = Hashtbl.find_opt idx.stamps f
let fact_count idx = Hashtbl.length idx.stamps

let bucket_push b e =
  let cap = Array.length b.arr in
  if b.size = cap then begin
    let arr = Array.make (2 * cap) b.arr.(0) in
    Array.blit b.arr 0 arr 0 b.size;
    b.arr <- arr
  end;
  b.arr.(b.size) <- e;
  b.size <- b.size + 1

let push tbl key e =
  match Hashtbl.find_opt tbl key with
  | Some b -> bucket_push b e
  | None -> Hashtbl.replace tbl key { arr = Array.make 4 e; size = 1 }

let add idx ~round f =
  if mem idx f then false
  else begin
    let e = { fact = f; round } in
    Hashtbl.replace idx.stamps f round;
    let rel = Fact.rel f in
    push idx.by_rel rel e;
    Array.iteri (fun pos c -> push idx.by_key (rel, pos, c) e) (Fact.tuple_arr f);
    idx.pending := f :: !(idx.pending);
    true
  end

let commit idx =
  let by_rel : (Relation.t, Fact.t list) Hashtbl.t = Hashtbl.create 16 in
  (* [pending] is newest first, so consing rebuilds each group oldest
     first *)
  List.iter
    (fun f ->
      let rel = Fact.rel f in
      let group = Option.value ~default:[] (Hashtbl.find_opt by_rel rel) in
      Hashtbl.replace by_rel rel (f :: group))
    !(idx.pending);
  let flat = List.rev !(idx.pending) in
  idx.pending := [];
  (flat, by_rel)

(* Number of leading entries with round <= up_to (rounds are monotone). *)
let prefix_le bucket up_to =
  if bucket.size = 0 || bucket.arr.(0).round > up_to then 0
  else if bucket.arr.(bucket.size - 1).round <= up_to then bucket.size
  else begin
    (* arr.(lo).round <= up_to < arr.(hi).round *)
    let lo = ref 0 and hi = ref (bucket.size - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if bucket.arr.(mid).round <= up_to then lo := mid else hi := mid
    done;
    !lo + 1
  end

let bucket_seq ?up_to tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> Seq.empty
  | Some bucket ->
    let limit =
      match up_to with None -> bucket.size | Some u -> prefix_le bucket u
    in
    Seq.init limit (fun i -> bucket.arr.(i).fact)

let lookup idx ?up_to rel ~pos c =
  idx.stats.Stats.probes <- idx.stats.Stats.probes + 1;
  bucket_seq ?up_to idx.by_key (rel, pos, c)

let all idx ?up_to rel =
  idx.stats.Stats.probes <- idx.stats.Stats.probes + 1;
  bucket_seq ?up_to idx.by_rel rel

let mem_up_to idx ?(up_to = max_int) f =
  idx.stats.Stats.probes <- idx.stats.Stats.probes + 1;
  match round_of idx f with Some r -> r <= up_to | None -> false

let bucket_size_in tbl key =
  match Hashtbl.find_opt tbl key with Some b -> b.size | None -> 0

let bucket_size idx rel ~pos c = bucket_size_in idx.by_key (rel, pos, c)
let rel_size idx rel = bucket_size_in idx.by_rel rel
