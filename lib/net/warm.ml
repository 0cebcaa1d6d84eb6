(* Cross-request warm state.

   The caches that make repeated traffic cheap are process-wide already:
   the two-level entailment memo and the chase-result cache
   ({!Tgd_chase.Entailment}, {!Tgd_chase.Chase}), the analyze reports
   ({!Tgd_serve.Server.analyze_memo}) and the termination certificates
   behind chase promotion ({!Tgd_chase.Chase.certificate_memos}).  This
   module is the server-scope view over them: one switch that installs
   an overall byte ceiling with LRU eviction across all of them, and one
   set of counters the dispatcher surfaces in [stats] responses (and,
   opt-in, per request).  Each table enforces its share independently,
   so one hot workload cannot evict another table's entire working set.
   The entailment side and the chase-result cache hold whole instances
   and split most of the ceiling; the analyze reports (a string per
   ontology) and the certificates (a bool per ontology) get a sliver. *)

module Memo = Tgd_engine.Memo
module Json = Tgd_serve.Json
module Entailment = Tgd_chase.Entailment
module Chase = Tgd_chase.Chase
module Server = Tgd_serve.Server

let configure ~cache_bytes =
  (* shares in 32nds: 14 + 14 + 2 + 1 + 1 *)
  let share k = Option.map (fun b -> max 8192 (b / 32 * k)) cache_bytes in
  Entailment.set_cache_limit ~bytes:(share 14);
  Chase.set_memo_limit ~bytes:(share 14);
  Memo.set_limit Server.analyze_memo ~bytes:(share 2);
  List.iter (fun m -> Memo.set_limit m ~bytes:(share 1)) Chase.certificate_memos

let reset () =
  Entailment.clear_memos ();
  Chase.clear_memo ();
  Memo.clear Server.analyze_memo;
  List.iter Memo.clear Chase.certificate_memos

let counters () =
  List.fold_left Memo.combine_counters
    (Memo.counters Server.analyze_memo)
    (Entailment.cache_counters () :: Chase.memo_counters ()
    :: List.map Memo.counters Chase.certificate_memos)

let counters_json (c : Memo.counters) =
  Json.Obj
    [ ("hits", Json.Int c.Memo.hits);
      ("misses", Json.Int c.Memo.misses);
      ("entries", Json.Int c.Memo.entries);
      ("approx_bytes", Json.Int c.Memo.bytes);
      ("evictions", Json.Int c.Memo.evicted)
    ]
