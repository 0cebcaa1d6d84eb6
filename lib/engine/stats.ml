type t = {
  mutable probes : int;
  mutable scans : int;
  mutable fired : int;
  mutable rounds : int;
  mutable delta_facts : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable snapshots : int;
  mutable delta_records : int;
  mutable compactions : int;
  mutable chunks : int;
  mutable chunks_stolen : int;
  mutable chunk_items : int;
  mutable match_time : float;
  mutable fire_time : float;
  mutable merge_time : float;
  mutable build_time : float;
}

let create () =
  { probes = 0;
    scans = 0;
    fired = 0;
    rounds = 0;
    delta_facts = 0;
    memo_hits = 0;
    memo_misses = 0;
    snapshots = 0;
    delta_records = 0;
    compactions = 0;
    chunks = 0;
    chunks_stolen = 0;
    chunk_items = 0;
    match_time = 0.;
    fire_time = 0.;
    merge_time = 0.;
    build_time = 0.
  }

let copy s = { s with probes = s.probes }

let add ~into s =
  into.probes <- into.probes + s.probes;
  into.scans <- into.scans + s.scans;
  into.fired <- into.fired + s.fired;
  into.rounds <- into.rounds + s.rounds;
  into.delta_facts <- into.delta_facts + s.delta_facts;
  into.memo_hits <- into.memo_hits + s.memo_hits;
  into.memo_misses <- into.memo_misses + s.memo_misses;
  into.snapshots <- into.snapshots + s.snapshots;
  into.delta_records <- into.delta_records + s.delta_records;
  into.compactions <- into.compactions + s.compactions;
  into.chunks <- into.chunks + s.chunks;
  into.chunks_stolen <- into.chunks_stolen + s.chunks_stolen;
  into.chunk_items <- into.chunk_items + s.chunk_items;
  into.match_time <- into.match_time +. s.match_time;
  into.fire_time <- into.fire_time +. s.fire_time;
  into.merge_time <- into.merge_time +. s.merge_time;
  into.build_time <- into.build_time +. s.build_time

let diff a b =
  { probes = a.probes - b.probes;
    scans = a.scans - b.scans;
    fired = a.fired - b.fired;
    rounds = a.rounds - b.rounds;
    delta_facts = a.delta_facts - b.delta_facts;
    memo_hits = a.memo_hits - b.memo_hits;
    memo_misses = a.memo_misses - b.memo_misses;
    snapshots = a.snapshots - b.snapshots;
    delta_records = a.delta_records - b.delta_records;
    compactions = a.compactions - b.compactions;
    chunks = a.chunks - b.chunks;
    chunks_stolen = a.chunks_stolen - b.chunks_stolen;
    chunk_items = a.chunk_items - b.chunk_items;
    match_time = a.match_time -. b.match_time;
    fire_time = a.fire_time -. b.fire_time;
    merge_time = a.merge_time -. b.merge_time;
    build_time = a.build_time -. b.build_time
  }

(* One accumulator per domain: engine runs and memo accesses on a worker
   domain land in that domain's record, race-free by construction.  The
   {!Pool} merges worker deltas back into the submitting domain around each
   parallel batch, so single-domain callers see the same totals as before. *)
let global_key = Domain.DLS.new_key create

let global () = Domain.DLS.get global_key

let hit_rate s =
  let total = s.memo_hits + s.memo_misses in
  if total = 0 then 0. else float_of_int s.memo_hits /. float_of_int total

let mean_chunk_items s =
  if s.chunks = 0 then 0. else float_of_int s.chunk_items /. float_of_int s.chunks

let pp ppf s =
  Fmt.pf ppf
    "@[<v>probes: %d; scans: %d; fired: %d; rounds: %d; delta facts: %d@,\
     memo: %d hits / %d misses (%.0f%% hit rate)@,\
     pool: %d chunks (%d stolen, mean %.1f items/chunk)@,\
     recovery: %d snapshots written, %d delta records, \
     %d compactions@,\
     time: %.4fs match + %.4fs fire + %.4fs barrier merge + %.4fs load/build@]"
    s.probes s.scans s.fired s.rounds s.delta_facts s.memo_hits s.memo_misses
    (100. *. hit_rate s) s.chunks s.chunks_stolen (mean_chunk_items s)
    s.snapshots s.delta_records s.compactions s.match_time s.fire_time s.merge_time
    s.build_time
