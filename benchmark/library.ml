(* Library workloads: the paper's algorithms called in process, one
   operation after another — Algorithm 1 (G-to-L rewriting) and the
   restricted chase.  Each runs in its own child process, so domain
   spawns, GC state and peak RSS never leak between workloads. *)

open Harness
module Json = Tgd_serve.Json
module Stats = Tgd_engine.Stats
module Pool = Tgd_engine.Pool

type workload = Rewrite | Chase

let jobs = function Rewrite -> 2 | Chase -> 1

(* One operation: when it ran and what CPU it used (memo clearing and
   the answer check excluded), its engine counters and candidate counts,
   and whether it matched the golden answer. *)
type outcome = {
  s : int;
  e : int;
  cpu_s : float;
  stats : Stats.t;
  enumerated : int;
  skipped : int;
  ok : bool;
}

let timed f =
  let c0 = self_cpu_s () in
  let s = now_ns () in
  let r = Trace.span "lib.run" f in
  let e = now_ns () in
  (r, s, e, self_cpu_s () -. c0)

type prepared = {
  op : jobs:int -> unit -> outcome;
  request : string;  (** the same operation as a serve request line *)
}

let clear_memos () =
  Tgd_chase.Entailment.clear_memos ();
  Tgd_chase.Chase.clear_memo ()

let prepare workload ~seed =
  match workload with
  | Rewrite ->
    let input = Gen.rewrite_input ~seed in
    let sigma, _ = Gen.parse_input input in
    let golden = Gen.load_rewrite_golden () in
    let rels = Gen.rewrite_template.Gen.rels in
    { op =
        (fun ~jobs () ->
          clear_memos ();
          let config = Gen.rewrite_config ~jobs ~naive:false in
          let out, s, e, cpu_s = timed (fun () -> Tgd_core.Rewrite.g_to_l ~config sigma) in
          match out with
          | Tgd_engine.Budget.Complete r ->
            { s;
              e;
              cpu_s;
              stats = r.Tgd_core.Rewrite.stats;
              enumerated = r.Tgd_core.Rewrite.candidates_enumerated;
              skipped = r.Tgd_core.Rewrite.candidates_skipped;
              ok =
                Trace.span "lib.check" (fun () ->
                    Gen.rewrite_summary rels input.Gen.names r = Some golden)
            }
          | Tgd_engine.Budget.Truncated _ ->
            { s; e; cpu_s; stats = Stats.create (); enumerated = 0; skipped = 0; ok = false });
      request =
        Json.to_string
          (Json.Obj
             [ ("id", Json.Int 0);
               ("op", Json.String "rewrite");
               ("direction", Json.String "g2l");
               ("tgds", Json.String input.Gen.tgds);
               ("max_head_atoms", Json.Int 1)
             ])
    }
  | Chase ->
    let input = Gen.chase_input ~seed in
    let sigma, db = Gen.parse_input input in
    let db = Option.get db in
    let golden = Gen.load_chase_golden () in
    let rels = Gen.chase_template.Gen.rels in
    { op =
        (fun ~jobs () ->
          clear_memos ();
          let r, s, e, cpu_s = timed (fun () -> Tgd_chase.Chase.restricted ~jobs sigma db) in
          { s;
            e;
            cpu_s;
            stats = r.Tgd_chase.Chase.stats;
            enumerated = 0;
            skipped = 0;
            ok =
              Trace.span "lib.check" (fun () ->
                  r.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated
                  && Gen.chase_summary rels input.Gen.names r.Tgd_chase.Chase.instance = golden)
          });
      request =
        Json.to_string
          (Json.Obj
             [ ("id", Json.Int 0);
               ("op", Json.String "chase");
               ("tgds", Json.String input.Gen.tgds);
               ("facts", Json.String input.Gen.facts)
             ])
    }

type phase = { samples : outcome array; t0 : int; t1 : int; cpu_total_s : float }

(* Operations back to back until [seconds] pass (at least one). *)
let run_phase ~seconds op =
  let t0 = now_ns () in
  let deadline = t0 + ns_of_s seconds in
  let cpu0 = self_cpu_s () in
  let acc = ref [] in
  let rec go k =
    if k = 0 || now_ns () < deadline then begin
      acc := Trace.span ~req:k "lib.op" op :: !acc;
      go (k + 1)
    end
  in
  go 0;
  { samples = Array.of_list (List.rev !acc);
    t0;
    t1 = now_ns ();
    cpu_total_s = self_cpu_s () -. cpu0
  }

let rate p =
  ops_per_s ~t0:p.t0 ~t1:p.t1
    (Array.map (fun x -> x.s) p.samples)
    (Array.map (fun x -> x.e) p.samples)

(* Median CPU per operation in each window, median over windows. *)
let cpu_windows p =
  windowed ~t0:p.t0 ~t1:p.t1
    (Array.map (fun x -> x.e) p.samples)
    (Array.map (fun x -> x.cpu_s) p.samples)
    median

let failures p = Array.fold_left (fun acc x -> if x.ok then acc else acc + 1) 0 p.samples

let sum_stats samples =
  let total = Stats.create () in
  Array.iter (fun x -> Stats.add ~into:total x.stats) samples;
  total

let mean f samples =
  ratio
    (Array.fold_left (fun acc x -> acc +. f x) 0. samples)
    (float_of_int (Array.length samples))

let run ~workload ~tgdtool ~dir ~seed ~seconds ~trace =
  let jobs = jobs workload in
  (* set-up: input generation, parsing and pool warm-up, several times *)
  let setups = Floats.create () in
  let starts = if trace then 1 else setup_starts in
  let prepared = ref None in
  for k = 1 to starts do
    if k > 1 then Pool.warm_shutdown ();
    let t0 = now_ns () in
    let p = prepare workload ~seed in
    if jobs > 1 then ignore (Pool.warm ~jobs ());
    Floats.push setups (elapsed_s t0);
    prepared := Some p
  done;
  let p = Option.get !prepared in
  let op = p.op ~jobs in
  for _ = 1 to 2 do
    ignore (op ())
  done;
  let phase_seconds = if trace then float_of_int seconds /. 3. else float_of_int seconds in
  let untraced = run_phase ~seconds:phase_seconds op in
  let n = Array.length untraced.samples in
  let end_to_end =
    let pct name q =
      let v, n, windows =
        windowed_ms ~t0:untraced.t0 ~t1:untraced.t1
          (Array.map (fun x -> x.s) untraced.samples)
          (Array.map (fun x -> x.e) untraced.samples)
          q
      in
      metric name "ms" v ~samples:n ~windows
    in
    let ops, ops_windows = rate untraced and cpu, _, cpus = cpu_windows untraced in
    [ metric "setup_s" "s" (median (Floats.to_array setups)) ~samples:setups.Floats.n;
      metric "ops_per_s" "1/s" ops ~windows:ops_windows;
      pct "p50_ms" 50.;
      pct "p90_ms" 90.;
      metric "rss_peak_mb" "MB" (float_of_int (vm_hwm_kb (Unix.getpid ())) /. 1024.);
      metric "cpu_ms_per_op" "ms" (ms cpu) ~windows:(Array.map ms cpus);
      metric "failed_frac" "frac" (fratio (failures untraced) n)
    ]
  in
  let sent = ref n and failed = ref (failures untraced) in
  let per_layer =
    if not trace then []
    else begin
      (* chunk traffic of the jobs-2 warm pool around a region *)
      let pool_delta f =
        let c0 = Pool.counters (Pool.warm ~jobs:2 ()) in
        let r = f () in
        let c1 = Pool.counters (Pool.warm ~jobs:2 ()) in
        ( r,
          ( c1.Pool.chunks - c0.Pool.chunks,
            c1.Pool.chunks_stolen - c0.Pool.chunks_stolen,
            c1.Pool.merge_time_s -. c0.Pool.merge_time_s ) )
      in
      let no_pool f = (f (), (0, 0, 0.)) in
      let gc0 = Gc.quick_stat () in
      Trace.enabled := true;
      let traced, pool_traced =
        (if jobs > 1 then pool_delta else no_pool) (fun () ->
            run_phase ~seconds:phase_seconds op)
      in
      Trace.enabled := false;
      let gc1 = Gc.quick_stat () in
      let ops = Array.length traced.samples in
      sent := !sent + ops;
      failed := !failed + failures traced;
      let total = sum_stats traced.samples in
      (* the same operation at the other jobs count: extra engine work
         at jobs 2 is work parallel workers duplicated on the shared memo;
         the chase workload reads its pool counters from this run *)
      let other, pool_other =
        if jobs > 1 then no_pool (p.op ~jobs:1) else pool_delta (p.op ~jobs:2)
      in
      incr sent;
      if not other.ok then incr failed;
      let fired1, fired2 =
        let mean_fired = mean (fun x -> float_of_int x.stats.Stats.fired) traced.samples in
        let other_fired = float_of_int other.stats.Stats.fired in
        if jobs = 1 then (mean_fired, other_fired) else (other_fired, mean_fired)
      in
      let (chunks, stolen, merge_s), pool_ops =
        if jobs > 1 then (pool_traced, ops) else (pool_other, 1)
      in
      (* replay the operation as a serve request through the layers *)
      Trace.enabled := true;
      let r =
        Serving.replay (Array.make 3 p.request) ~check:(fun _ resp ->
            match Json.of_string resp with
            | Ok j -> Json.member "ok" j = Some (Json.Bool true)
            | Error _ -> false)
      in
      Trace.enabled := false;
      let rungs, l_sent, l_failed = Serving.ladder ~tgdtool ~dir ~seed in
      sent := !sent + r.Serving.r_sent + l_sent;
      failed := !failed + r.Serving.r_failed + l_failed;
      let enumerated = mean (fun x -> float_of_int x.enumerated) traced.samples in
      let untraced_rate = fst (rate untraced) in
      Serving.replay_metrics () @ rungs
      @ [ metric "cache.hit_rate" "frac" (Stats.hit_rate total);
          metric "cache.evictions_per_req" "count" 0.;
          metric "cache.approx_mb" "MB" 0.;
          metric "dispatcher.shed_frac" "frac" 0.;
          metric "router.failovers" "count" 0.;
          metric "transport.session_errors" "count" 0.;
          metric "pool.chunks" "count" (fratio chunks pool_ops);
          metric "pool.stolen_frac" "frac" (fratio stolen chunks);
          metric "pool.merge_s" "s" (ratio merge_s (float_of_int pool_ops));
          metric "entailment.duplicate_frac" "frac" (ratio (fired2 -. fired1) fired1);
          metric "candidates.enumerated" "count" enumerated;
          metric "candidates.prefiltered_frac" "frac"
            (ratio (mean (fun x -> float_of_int x.skipped) traced.samples) enumerated);
          metric "client.cpu_frac" "frac"
            (let in_ops = Array.fold_left (fun acc x -> acc +. x.cpu_s) 0. untraced.samples in
             ratio (untraced.cpu_total_s -. in_ops) (s_of_ns (untraced.t1 - untraced.t0)));
          metric "trace.overhead_frac" "frac"
            (ratio (untraced_rate -. fst (rate traced)) untraced_rate)
        ]
      @ Serving.engine_metrics ~ops total
          ~probes:(Array.map (fun x -> float_of_int x.stats.Stats.probes) traced.samples)
      @ Serving.gc_metrics ~ops
          ~minor_words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
          ~major_collections:(gc1.Gc.major_collections - gc0.Gc.major_collections)
    end
  in
  let notes =
    if trace && jobs > 1 then
      [ "engine counters at jobs 2 are not run-to-run exact (parallel workers race on the \
         shared memo); engine.probes_spread_frac gives their spread" ]
    else []
  in
  (end_to_end @ per_layer, !sent, !failed, notes)
