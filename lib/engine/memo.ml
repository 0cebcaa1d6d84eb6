open Tgd_syntax

(* Tables are sharded by key hash, each shard behind its own mutex, so
   concurrent Σ ⊨ σ checks running on {!Pool} workers share one cache
   without a global lock.  Computation happens OUTSIDE the shard lock: two
   domains racing on the same fresh key may both compute (the second insert
   is dropped), which wastes a little work but can never deadlock — a
   compute that recursively consults another memo never holds a lock. *)

let shard_count = 16

(* Entries carry an approximate byte footprint (0 while no ceiling is
   installed — weighing is then skipped entirely) and the shard clock value
   of their last access, which is all the LRU eviction sweep needs. *)
type 'a entry = {
  value : 'a;
  mutable tick : int;
  entry_bytes : int;
}

type 'a shard = {
  table : (string, 'a entry) Hashtbl.t;
  lock : Mutex.t;
  shard_stats : Stats.t;
  mutable clock : int;
  mutable bytes : int;
  mutable evictions : int;
  mutable limit : int option;  (* per-shard byte ceiling *)
}

type 'a t = {
  shards : 'a shard array;
  memo_name : string;
}

let create ?(name = "memo") () =
  { shards =
      Array.init shard_count (fun _ ->
          { table = Hashtbl.create 64;
            lock = Mutex.create ();
            shard_stats = Stats.create ();
            clock = 0;
            bytes = 0;
            evictions = 0;
            limit = None
          });
    memo_name = name
  }

let name m = m.memo_name

let shard_of m key = m.shards.(Hashtbl.hash key land (shard_count - 1))

(* Shard counters are only touched under the shard lock; the domain-local
   global accumulator needs no lock. *)
let hit sh =
  sh.shard_stats.Stats.memo_hits <- sh.shard_stats.Stats.memo_hits + 1;
  let g = Stats.global () in
  g.Stats.memo_hits <- g.Stats.memo_hits + 1

let miss sh =
  sh.shard_stats.Stats.memo_misses <- sh.shard_stats.Stats.memo_misses + 1;
  let g = Stats.global () in
  g.Stats.memo_misses <- g.Stats.memo_misses + 1

let touch sh e =
  sh.clock <- sh.clock + 1;
  e.tick <- sh.clock

(* LRU sweep, under the shard lock: drop least-recently-touched entries
   until the shard is back under 7/8 of its ceiling (the hysteresis keeps
   the sweep off the per-insert fast path).  The newest entry — maximal
   tick, so last in the sorted order — always survives, even when it alone
   exceeds the ceiling: an oversized result still serves the request that
   computed it. *)
let evict_lru sh =
  match sh.limit with
  | None -> ()
  | Some limit when sh.bytes <= limit -> ()
  | Some limit ->
    let target = limit - (limit / 8) in
    let entries =
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) sh.table []
      |> List.sort (fun (_, a) (_, b) -> compare a.tick b.tick)
    in
    List.iter
      (fun (k, e) ->
        if sh.bytes > target && Hashtbl.length sh.table > 1 then begin
          Hashtbl.remove sh.table k;
          sh.bytes <- sh.bytes - e.entry_bytes;
          sh.evictions <- sh.evictions + 1
        end)
      entries

(* Weighing traverses the value ([Obj.reachable_words]); shared substructure
   is counted once per entry, overestimating the true marginal footprint —
   which only makes eviction fire earlier, never lets the table run away. *)
let weigh key v =
  (8 * Obj.reachable_words (Obj.repr v)) + String.length key + 64

(* Under the shard lock; an existing entry wins (same rule as before). *)
let store sh key v =
  if not (Hashtbl.mem sh.table key) then begin
    let entry_bytes = match sh.limit with None -> 0 | Some _ -> weigh key v in
    sh.clock <- sh.clock + 1;
    Hashtbl.replace sh.table key { value = v; tick = sh.clock; entry_bytes };
    sh.bytes <- sh.bytes + entry_bytes;
    evict_lru sh
  end

let find_or_add m key compute =
  let sh = shard_of m key in
  Mutex.lock sh.lock;
  match Hashtbl.find_opt sh.table key with
  | Some e ->
    hit sh;
    touch sh e;
    Mutex.unlock sh.lock;
    e.value
  | None ->
    miss sh;
    Mutex.unlock sh.lock;
    let v = compute () in
    Mutex.lock sh.lock;
    let v =
      match Hashtbl.find_opt sh.table key with
      | Some winner ->
        (* a concurrent compute beat us; use its value *)
        touch sh winner;
        winner.value
      | None ->
        store sh key v;
        v
    in
    Mutex.unlock sh.lock;
    v

let add m key v =
  let sh = shard_of m key in
  Mutex.lock sh.lock;
  store sh key v;
  Mutex.unlock sh.lock

let find m key =
  let sh = shard_of m key in
  Mutex.lock sh.lock;
  let r =
    match Hashtbl.find_opt sh.table key with
    | Some e ->
      hit sh;
      touch sh e;
      Some e.value
    | None ->
      miss sh;
      None
  in
  Mutex.unlock sh.lock;
  r

let clear m =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      Hashtbl.reset sh.table;
      sh.bytes <- 0;
      Mutex.unlock sh.lock)
    m.shards

let set_limit m ~bytes =
  let per_shard =
    Option.map (fun b -> max 4096 (b / shard_count)) bytes
  in
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      (* footprints of entries stored under the previous regime are stale
         (unweighed, or weighed against a ceiling being removed), so a
         limit change restarts the table from empty, fully accounted *)
      Hashtbl.reset sh.table;
      sh.bytes <- 0;
      sh.limit <- per_shard;
      Mutex.unlock sh.lock)
    m.shards

let size m =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let n = Hashtbl.length sh.table in
      Mutex.unlock sh.lock;
      acc + n)
    0 m.shards

let approx_bytes m =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let b = sh.bytes in
      Mutex.unlock sh.lock;
      acc + b)
    0 m.shards

let evictions m =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let e = sh.evictions in
      Mutex.unlock sh.lock;
      acc + e)
    0 m.shards

let stats m =
  let total = Stats.create () in
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      let copy = Stats.copy sh.shard_stats in
      Mutex.unlock sh.lock;
      Stats.add ~into:total copy)
    m.shards;
  total

(* ------------------------------------------------------------------ *)
(* Aggregated counters (for surfacing cache state in serve responses)  *)
(* ------------------------------------------------------------------ *)

type counters = {
  hits : int;
  misses : int;
  entries : int;
  bytes : int;
  evicted : int;
}

let combine_counters a b =
  { hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    entries = a.entries + b.entries;
    bytes = a.bytes + b.bytes;
    evicted = a.evicted + b.evicted
  }

let counters m =
  let s = stats m in
  { hits = s.Stats.memo_hits;
    misses = s.Stats.memo_misses;
    entries = size m;
    bytes = approx_bytes m;
    evicted = evictions m
  }

(* ------------------------------------------------------------------ *)
(* Key builders                                                        *)
(* ------------------------------------------------------------------ *)

let exact_limit = 5

(* Variables renamed in order of first occurrence across the atom list. *)
let first_occurrence_renaming atoms =
  let counter = ref 0 in
  List.fold_left
    (fun map atom ->
      List.fold_left
        (fun map v ->
          if Variable.Map.mem v map then map
          else begin
            let v' = Variable.indexed "b" !counter in
            incr counter;
            Variable.Map.add v v' map
          end)
        map (Atom.var_list atom))
    Variable.Map.empty atoms

let render_conjunction atoms =
  let renaming = first_occurrence_renaming atoms in
  atoms
  |> List.map (fun a -> Atom.to_string (Atom.rename renaming a))
  |> String.concat " /\\ "

let sorted_fallback atoms =
  atoms |> List.map Atom.to_string |> List.sort String.compare
  |> String.concat " /\\ "

(* One permutation search gives the canonical atoms, the renaming onto
   them, and the key: the key is the canonical atoms' rendering. *)
let body_canonical atoms =
  match atoms with
  | [] -> ([], Variable.Map.empty, "")
  | _ when List.length atoms <= exact_limit ->
    let key, perm =
      Combinat.permutations atoms
      |> Seq.fold_left
           (fun acc perm ->
             let s = render_conjunction perm in
             match acc with
             | Some (best, _) when String.compare best s <= 0 -> acc
             | _ -> Some (s, perm))
           None
      |> Option.get
    in
    let renaming = first_occurrence_renaming perm in
    (List.map (Atom.rename renaming) perm, renaming, key)
  | _ ->
    let sorted =
      List.sort (fun a b -> String.compare (Atom.to_string a) (Atom.to_string b))
        atoms
    in
    let identity =
      List.fold_left
        (fun map atom ->
          List.fold_left
            (fun map v -> Variable.Map.add v v map)
            map (Atom.var_list atom))
        Variable.Map.empty sorted
    in
    (sorted, identity, sorted_fallback sorted)

let body_key atoms =
  let _, _, key = body_canonical atoms in
  key

(* Per-domain key cache: no locks, and physical-equality-friendly reuse
   within a domain covers the common sweep shapes. *)
let tgd_keys_key : (Tgd.t, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let tgd_key tgd =
  let tgd_keys = Domain.DLS.get tgd_keys_key in
  match Hashtbl.find_opt tgd_keys tgd with
  | Some k -> k
  | None ->
    let n = List.length (Tgd.body tgd) + List.length (Tgd.head tgd) in
    let k =
      if n <= exact_limit then Tgd.to_string (Canonical.tgd tgd)
      else
        Fmt.str "%s => %s"
          (sorted_fallback (Tgd.body tgd))
          (sorted_fallback (Tgd.head tgd))
    in
    Hashtbl.replace tgd_keys tgd k;
    k

let sigma_key sigma =
  sigma |> List.map tgd_key
  |> List.sort_uniq String.compare
  |> String.concat " ;; "
