(* A chunk-claiming domain pool built on Domain + Mutex/Condition.

   Workers block on [nonempty] and claim chunk execs from a shared queue —
   dynamic claiming is what balances load when per-item cost varies by
   orders of magnitude (a candidate whose chase terminates in one round vs
   one that exhausts the budget).  Each chunk snapshots the worker domain's
   [Stats.global] before running and folds the delta into the batch
   accumulator, which the submitting domain merges into its own global when
   the batch joins — so counter attribution is exact and race-free without
   a single atomic counter in the hot path.

   A chunk body never escapes its exec: every exception (an injected
   [pool.chunk] fault included) is recorded as the batch failure, so a
   worker always returns to the queue and each chunk completes exactly
   once.  Shutdown raises [closing]; workers finish whatever is queued,
   exit, and are joined. *)

(* A queued chunk, run by a worker given its own slot (see {!make_exec}). *)
type exec = int -> unit

type counters = {
  batches : int;
  chunks : int;
  chunks_stolen : int;
  chunk_items : int;
  merge_time_s : float;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : exec Queue.t;
  mutable domains : unit Domain.t list;
  (* cumulative chunk accounting, guarded by [mutex]; surfaced by the
     serving layer's [stats] op via {!counters} *)
  mutable c_batches : int;
  mutable c_chunks : int;
  mutable c_stolen : int;
  mutable c_items : int;
  mutable c_merge_s : float;
  mutable closing : bool;
}

let now () = Unix.gettimeofday ()

(* True on pool worker domains: a nested batch operation started from
   inside a chunk must not submit to (and join on) the pool that is
   running it — {!with_warm} checks this and degrades to the sequential
   path instead of deadlocking. *)
let on_worker_key = Domain.DLS.new_key (fun () -> false)

let rec worker_loop pool slot =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closing do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* closing *)
  else begin
    let exec = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    exec slot;
    worker_loop pool slot
  end

let create ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    { jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      domains = [];
      c_batches = 0;
      c_chunks = 0;
      c_stolen = 0;
      c_items = 0;
      c_merge_s = 0.;
      closing = false
    }
  in
  pool.domains <-
    List.init jobs (fun slot ->
        Domain.spawn (fun () ->
            Domain.DLS.set on_worker_key true;
            worker_loop pool slot));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mutex;
  let domains = pool.domains in
  pool.domains <- [];
  pool.closing <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains

let with_pool ~jobs f =
  let pool = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

type batch = {
  bmutex : Mutex.t;
  finished : Condition.t;
  mutable remaining : int;  (* chunk execs not yet committed *)
  mutable failure : exn option;
  acc : Stats.t;            (* worker Stats.global deltas, merged on join *)
  stolen : int Atomic.t;    (* chunks claimed off their intended slot *)
  nchunks : int;
  nitems : int;
}

let default_chunk ~jobs n = max 1 (min 32 (n / (8 * jobs)))

let submit pool execs =
  Mutex.lock pool.mutex;
  List.iter (fun e -> Queue.push e pool.queue) execs;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex

let join_batch pool batch =
  Mutex.lock batch.bmutex;
  while batch.remaining > 0 do
    Condition.wait batch.finished batch.bmutex
  done;
  Mutex.unlock batch.bmutex;
  let t0 = now () in
  (* fold the workers' counters into the submitting domain's accumulator *)
  let g = Stats.global () in
  Stats.add ~into:g batch.acc;
  let stolen = Atomic.get batch.stolen in
  g.Stats.chunks <- g.Stats.chunks + batch.nchunks;
  g.Stats.chunks_stolen <- g.Stats.chunks_stolen + stolen;
  g.Stats.chunk_items <- g.Stats.chunk_items + batch.nitems;
  let merge_s = now () -. t0 in
  Mutex.lock pool.mutex;
  pool.c_batches <- pool.c_batches + 1;
  pool.c_chunks <- pool.c_chunks + batch.nchunks;
  pool.c_stolen <- pool.c_stolen + stolen;
  pool.c_items <- pool.c_items + batch.nitems;
  pool.c_merge_s <- pool.c_merge_s +. merge_s;
  Mutex.unlock pool.mutex;
  g.Stats.merge_time <- g.Stats.merge_time +. merge_s;
  match batch.failure with Some e -> raise e | None -> ()

let counters pool =
  Mutex.lock pool.mutex;
  let c =
    { batches = pool.c_batches;
      chunks = pool.c_chunks;
      chunks_stolen = pool.c_stolen;
      chunk_items = pool.c_items;
      merge_time_s = pool.c_merge_s
    }
  in
  Mutex.unlock pool.mutex;
  c

(* Wrap [body], which processes one chunk, as an exec that commits its
   outcome and Stats delta to the batch.  A worker whose slot is not
   [owner] counts the chunk as stolen.  [Chaos.step] at [pool.chunk] sits
   inside the try: an injected fault there is recorded as the batch
   failure and re-raised at the join, the same path any chunk exception
   takes — the batch still drains. *)
let make_exec batch ~owner body slot =
  if owner >= 0 && owner <> slot then Atomic.incr batch.stolen;
  let before = Stats.copy (Stats.global ()) in
  let outcome =
    try
      Chaos.step ~site:"pool.chunk";
      Ok (body ())
    with e -> Error e
  in
  let delta = Stats.diff (Stats.copy (Stats.global ())) before in
  Mutex.lock batch.bmutex;
  Stats.add ~into:batch.acc delta;
  (match outcome with
  | Ok () -> ()
  | Error e -> if batch.failure = None then batch.failure <- Some e);
  batch.remaining <- batch.remaining - 1;
  if batch.remaining = 0 then Condition.broadcast batch.finished;
  Mutex.unlock batch.bmutex

let run_chunked pool ?chunk ~n body =
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Pool: chunk must be >= 1"
    | None -> default_chunk ~jobs:pool.jobs n
  in
  let nchunks = (n + chunk - 1) / chunk in
  let batch =
    { bmutex = Mutex.create ();
      finished = Condition.create ();
      remaining = nchunks;
      failure = None;
      acc = Stats.create ();
      stolen = Atomic.make 0;
      nchunks;
      nitems = n
    }
  in
  let execs =
    (* A steal is a chunk claimed off the slot a static round-robin split
       would have given it — dynamic claiming rebalancing the load.  A
       single-chunk batch has no intended placement, so it never counts. *)
    List.init nchunks (fun ci ->
        let lo = ci * chunk in
        let hi = min n (lo + chunk) in
        let owner = if nchunks = 1 then -1 else ci mod pool.jobs in
        make_exec batch ~owner (fun () -> body ~lo ~hi))
  in
  submit pool execs;
  join_batch pool batch

(* Between-item cancellation poll: one atomic read per item.  A tripped
   token makes every worker abandon the rest of its chunk; the batch still
   drains and joins normally, so a cancelled call returns (with whatever
   items were processed) instead of hanging. *)
let stopped cancel =
  match cancel with
  | Some c -> Budget.Cancel.is_cancelled c
  | None -> false

let parallel_filter_map pool ?chunk ?cancel f seq =
  let items = Array.of_seq seq in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let slots = Array.make n None in
    run_chunked pool ?chunk ~n (fun ~lo ~hi ->
        let i = ref lo in
        while !i < hi && not (stopped cancel) do
          slots.(!i) <- f items.(!i);
          incr i
        done);
    (* slots writes happen-before the join via the batch mutex *)
    Array.to_seq slots |> Seq.filter_map Fun.id |> List.of_seq
  end

let parallel_map pool ?chunk ?cancel f seq =
  parallel_filter_map pool ?chunk ?cancel (fun x -> Some (f x)) seq

(* ------------------------------------------------------------------ *)
(* Warm pools                                                          *)
(* ------------------------------------------------------------------ *)

(* Spawning a domain costs hundreds of microseconds — re-spawning a pool
   per engine phase (one chase, one screening sweep) used to swamp the
   work it parallelised.  [warm ~jobs] keeps one pool per jobs count alive
   across calls; callers borrow it and must NOT shut it down. *)

let warm_mutex = Mutex.create ()
let warm_pools : (int, t) Hashtbl.t = Hashtbl.create 4
let warm_installed = ref false

let warm_shutdown () =
  Mutex.lock warm_mutex;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) warm_pools [] in
  Hashtbl.reset warm_pools;
  Mutex.unlock warm_mutex;
  List.iter shutdown pools

let warm ~jobs () =
  Mutex.lock warm_mutex;
  if not !warm_installed then begin
    warm_installed := true;
    at_exit warm_shutdown
  end;
  let p =
    match Hashtbl.find_opt warm_pools jobs with
    | Some p -> p
    | None ->
      let p = create ~jobs () in
      Hashtbl.replace warm_pools jobs p;
      p
  in
  Mutex.unlock warm_mutex;
  p

let with_warm ~jobs f =
  if jobs <= 1 || Domain.DLS.get on_worker_key then f None
  else f (Some (warm ~jobs ()))

let parallel_find_map pool ?chunk ?cancel f seq =
  let items = Array.of_seq seq in
  let n = Array.length items in
  if n = 0 then None
  else begin
    let slots = Array.make n None in
    (* Smallest item index with a hit so far.  An item may be skipped only
       when a strictly earlier hit already exists — that hit dominates
       whatever the item could produce, so the returned hit is always the
       first in input order, independent of scheduling. *)
    let best = Atomic.make max_int in
    let rec lower_best i =
      let cur = Atomic.get best in
      if i < cur && not (Atomic.compare_and_set best cur i) then lower_best i
    in
    run_chunked pool ?chunk ~n (fun ~lo ~hi ->
        let i = ref lo in
        let stop = ref false in
        while (not !stop) && !i < hi do
          if Atomic.get best < !i || stopped cancel then stop := true
          else begin
            (match f items.(!i) with
            | Some _ as hit ->
              slots.(!i) <- hit;
              lower_best !i;
              stop := true
            | None -> ());
            incr i
          end
        done);
    match Atomic.get best with
    | i when i = max_int -> None
    | i -> slots.(i)
  end
