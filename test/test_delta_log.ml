(* Incremental delta checkpoints (Tgd_engine.Delta_log + the chase/rewrite
   codecs over it): base ∘ appends ∘ compact ∘ load is the identity; a torn
   final record is dropped silently (clean resume — the kill -9 signature)
   while mid-chain corruption degrades to the last verifiable prefix
   (Resumed_partial, never a crash); compaction retires generations beyond
   [keep]; and a resumed chase replays to exactly the state the truncated
   run returned, at every (chunk, jobs) and through compactions. *)

open Tgd_syntax
open Tgd_instance
open Tgd_engine
open Helpers
module Chase = Tgd_chase.Chase
module Rewrite = Tgd_core.Rewrite
module Families = Tgd_workload.Families

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tgd_delta_test_%d_%d" (Unix.getpid ()) !dir_counter)

let with_log ?keep ?(kind = "test-payload") f =
  let cfg = Delta_log.config ?keep ~dir:(fresh_dir ()) ~name:"t" ~kind () in
  Fun.protect ~finally:(fun () -> Delta_log.remove cfg) (fun () -> f cfg)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flip_byte path off =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  write_file path (Bytes.to_string s)

(* -- wire primitives ---------------------------------------------------- *)

let test_varint_roundtrip () =
  let buf = Buffer.create 64 in
  let values = [ 0; 1; 127; 128; 300; 16_383; 16_384; max_int ] in
  List.iter (Wire.write_varint buf) values;
  let r = Wire.reader (Buffer.contents buf) in
  List.iter
    (fun v -> check_int (Printf.sprintf "varint %d" v) v (Wire.read_varint r))
    values;
  check_bool "consumed all" true (Wire.at_end r)

let test_varint_corrupt () =
  (* ten continuation bytes overflow the 63-bit payload *)
  let r = Wire.reader (String.make 10 '\xff') in
  (match Wire.read_varint r with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "varint overflow must raise Corrupt");
  let r = Wire.reader "\x80" in
  match Wire.read_varint r with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated varint must raise Corrupt"

let test_crc32_vector () =
  (* the standard IEEE 802.3 check value *)
  let s = "123456789" in
  Alcotest.(check int32)
    "crc32 of 123456789" 0xCBF43926l
    (Int32.of_int (Wire.crc32 s ~pos:0 ~len:(String.length s)))

(* -- the basic chain contract ------------------------------------------- *)

(* (base writes, delta records, compactions) so far on this domain *)
let log_counters () =
  let g = Stats.global () in
  (g.Stats.snapshots, g.Stats.delta_records, g.Stats.compactions)

let check_counters what (s0, d0, c0) (ds, dd, dc) =
  let s, d, c = log_counters () in
  check_int (what ^ ": snapshots") (s0 + ds) s;
  check_int (what ^ ": delta records") (d0 + dd) d;
  check_int (what ^ ": compactions") (c0 + dc) c

let test_fresh_then_chain_roundtrip () =
  with_log (fun cfg ->
      (match Delta_log.load cfg with
      | Delta_log.Fresh -> ()
      | _ -> Alcotest.fail "no files yet: expected Fresh");
      let before = log_counters () in
      let t = Delta_log.start cfg ~base:"BASE" in
      check_counters "start" before (1, 0, 0);
      Delta_log.append t "d1";
      check_counters "first append" before (1, 1, 0);
      Delta_log.append t "d2";
      Delta_log.append t "d3";
      check_counters "three appends" before (1, 3, 0);
      Delta_log.close t;
      (match Delta_log.load cfg with
      | Delta_log.Resumed c ->
        Alcotest.(check string) "base" "BASE" c.Delta_log.base;
        Alcotest.(check (list string))
          "deltas" [ "d1"; "d2"; "d3" ] c.Delta_log.deltas;
        check_int "torn" 0 c.Delta_log.torn_bytes;
        check_bool "clean" true (c.Delta_log.warnings = []);
        let t = Delta_log.resume cfg c in
        Delta_log.compact t ~base:"BASEd1d2d3";
        check_counters "compact" before (2, 3, 1);
        Delta_log.close t
      | _ -> Alcotest.fail "expected clean Resumed");
      Delta_log.remove cfg;
      match Delta_log.load cfg with
      | Delta_log.Fresh -> ()
      | _ -> Alcotest.fail "after remove: expected Fresh")

let test_append_after_resume () =
  with_log (fun cfg ->
      let t = Delta_log.start cfg ~base:"B" in
      Delta_log.append t "one";
      Delta_log.close t;
      (match Delta_log.load cfg with
      | Delta_log.Resumed c ->
        let t = Delta_log.resume cfg c in
        Delta_log.append t "two";
        Delta_log.close t
      | _ -> Alcotest.fail "expected Resumed");
      match Delta_log.load cfg with
      | Delta_log.Resumed c ->
        Alcotest.(check (list string))
          "extended chain" [ "one"; "two" ] c.Delta_log.deltas
      | _ -> Alcotest.fail "expected Resumed after re-append")

let test_compaction_prunes_generations () =
  with_log ~keep:2 (fun cfg ->
      let t = Delta_log.start cfg ~base:"g1" in
      Delta_log.append t "a";
      Delta_log.compact t ~base:"g2";
      Delta_log.append t "b";
      Delta_log.compact t ~base:"g3";
      Delta_log.compact t ~base:"g4";
      let gen = Delta_log.generation t in
      Delta_log.close t;
      check_int "four generations opened" 4 gen;
      (* keep = 2: generations ≤ gen - 2 are gone, gen and gen-1 remain *)
      check_bool "g1 base pruned" false
        (Sys.file_exists (Delta_log.base_path cfg ~generation:1));
      check_bool "g2 base pruned" false
        (Sys.file_exists (Delta_log.base_path cfg ~generation:2));
      check_bool "g3 base kept" true
        (Sys.file_exists (Delta_log.base_path cfg ~generation:3));
      check_bool "g4 base kept" true
        (Sys.file_exists (Delta_log.base_path cfg ~generation:4));
      match Delta_log.load cfg with
      | Delta_log.Resumed c ->
        Alcotest.(check string) "latest base" "g4" c.Delta_log.base;
        Alcotest.(check (list string)) "chain empty" [] c.Delta_log.deltas
      | _ -> Alcotest.fail "expected Resumed from the compacted generation")

let test_kind_mismatch_rejected () =
  with_log (fun cfg ->
      let t = Delta_log.start cfg ~base:"B" in
      Delta_log.close t;
      let other = { cfg with Delta_log.kind = "other-kind" } in
      match Delta_log.load other with
      | Delta_log.Rejected _ -> ()
      | _ -> Alcotest.fail "kind mismatch must be Rejected")

(* -- the two corruption modes, distinctly ------------------------------- *)

(* Frames of a 4-byte payload cost 1 (varint) + 4 (crc) + 4 = 9 bytes;
   the log header is its first line. *)
let header_end cfg =
  let s = read_file (Delta_log.log_path cfg ~generation:1) in
  String.index s '\n' + 1

let chain_of_three cfg =
  let t = Delta_log.start cfg ~base:"BASE" in
  Delta_log.append t "aaaa";
  Delta_log.append t "bbbb";
  Delta_log.append t "cccc";
  Delta_log.close t

let test_torn_tail_is_clean () =
  with_log (fun cfg ->
      chain_of_three cfg;
      let path = Delta_log.log_path cfg ~generation:1 in
      let s = read_file path in
      (* cut into the last frame: the kill -9 mid-append signature *)
      write_file path (String.sub s 0 (String.length s - 2));
      match Delta_log.load cfg with
      | Delta_log.Resumed c ->
        Alcotest.(check (list string))
          "prefix kept" [ "aaaa"; "bbbb" ] c.Delta_log.deltas;
        check_bool "torn bytes counted" true (c.Delta_log.torn_bytes > 0);
        check_bool "no warnings: torn is expected" true
          (c.Delta_log.warnings = []);
        (* resuming truncates the torn suffix, then extends cleanly *)
        let t = Delta_log.resume cfg c in
        Delta_log.append t "dddd";
        Delta_log.close t;
        (match Delta_log.load cfg with
        | Delta_log.Resumed c ->
          Alcotest.(check (list string))
            "torn suffix replaced" [ "aaaa"; "bbbb"; "dddd" ]
            c.Delta_log.deltas
        | _ -> Alcotest.fail "expected clean Resumed after repair")
      | _ -> Alcotest.fail "a torn tail must still be a clean Resumed")

let test_midchain_corruption_is_partial () =
  with_log (fun cfg ->
      chain_of_three cfg;
      let path = Delta_log.log_path cfg ~generation:1 in
      (* flip a payload byte of the second record — bytes follow it, so
         this is real corruption, not a torn tail *)
      flip_byte path (header_end cfg + 9 + 5);
      match Delta_log.load cfg with
      | Delta_log.Resumed_partial c ->
        Alcotest.(check (list string))
          "verified prefix" [ "aaaa" ] c.Delta_log.deltas;
        check_bool "records dropped" true (c.Delta_log.dropped_records >= 1);
        check_bool "warnings say what was lost" true
          (c.Delta_log.warnings <> [])
      | Delta_log.Resumed _ ->
        Alcotest.fail "mid-chain corruption must not look clean"
      | _ -> Alcotest.fail "expected Resumed_partial")

let test_corrupt_base_falls_back_or_rejects () =
  with_log (fun cfg ->
      (* two generations via compaction, then damage the newest base:
         the load must fall back to the older retained generation *)
      let t = Delta_log.start cfg ~base:"old" in
      Delta_log.append t "a";
      Delta_log.compact t ~base:"new";
      Delta_log.close t;
      let s = read_file (Delta_log.base_path cfg ~generation:2) in
      write_file
        (Delta_log.base_path cfg ~generation:2)
        (String.sub s 0 (String.length s - 1));
      (match Delta_log.load cfg with
      | Delta_log.Resumed_partial c ->
        Alcotest.(check string) "older base" "old" c.Delta_log.base;
        check_bool "fallback warned" true (c.Delta_log.warnings <> [])
      | _ -> Alcotest.fail "expected fallback to generation 1");
      (* and with the old generation gone too, the chain is Rejected *)
      Sys.remove (Delta_log.base_path cfg ~generation:1);
      match Delta_log.load cfg with
      | Delta_log.Rejected errors -> check_bool "diagnosed" true (errors <> [])
      | _ -> Alcotest.fail "no verifiable base must be Rejected")

(* -- inspection --------------------------------------------------------- *)

let test_inspect_reports_status () =
  with_log (fun cfg ->
      chain_of_three cfg;
      flip_byte
        (Delta_log.log_path cfg ~generation:1)
        (header_end cfg + 9 + 5);
      let pointer, gens = Delta_log.inspect ~dir:cfg.Delta_log.dir ~name:"t" in
      (match pointer with
      | Some (kind, _, g) ->
        Alcotest.(check string) "pointer kind" "test-payload" kind;
        check_int "pointer generation" 1 g
      | None -> Alcotest.fail "pointer must be readable");
      (match gens with
      | [ g ] ->
        check_bool "current" true g.Delta_log.g_current;
        check_bool "base ok" true (g.Delta_log.g_base_status = `Ok);
        let statuses =
          List.map (fun r -> r.Delta_log.r_status) g.Delta_log.g_records
        in
        check_bool "first record ok" true (List.nth statuses 0 = `Ok);
        check_bool "second record corrupt" true
          (match List.nth statuses 1 with `Corrupt _ -> true | _ -> false)
      | _ -> Alcotest.fail "expected exactly one generation");
      Alcotest.(check (list string))
        "scan finds the chain" [ "t" ]
        (Delta_log.scan ~dir:cfg.Delta_log.dir))

(* -- qcheck: chain round-trip and loader fuzz --------------------------- *)

let gen_payload = QCheck.Gen.(string_size ~gen:char (int_range 0 64))

let prop_chain_roundtrip =
  QCheck.Test.make ~name:"base ∘ appends ∘ compact ∘ load = id" ~count:40
    QCheck.(
      make
        Gen.(
          triple gen_payload
            (list_size (int_range 0 12) gen_payload)
            (list_size (int_range 0 6) gen_payload)))
    (fun (base, before, after) ->
      let cfg =
        Delta_log.config ~dir:(fresh_dir ()) ~name:"t" ~kind:"qc" ()
      in
      Fun.protect
        ~finally:(fun () -> Delta_log.remove cfg)
        (fun () ->
          let t = Delta_log.start cfg ~base in
          List.iter (Delta_log.append t) before;
          let compacted = base ^ String.concat "" before in
          Delta_log.compact t ~base:compacted;
          List.iter (Delta_log.append t) after;
          Delta_log.close t;
          match Delta_log.load cfg with
          | Delta_log.Resumed c ->
            c.Delta_log.base = compacted && c.Delta_log.deltas = after
          | _ -> false))

let prop_fuzz_never_crashes =
  QCheck.Test.make ~name:"random byte flips never crash the loader" ~count:80
    QCheck.(make Gen.(pair (int_range 0 1_000_000) (int_range 1 4)))
    (fun (seed, flips) ->
      let cfg =
        Delta_log.config ~dir:(fresh_dir ()) ~name:"t" ~kind:"fuzz" ()
      in
      Fun.protect
        ~finally:(fun () -> Delta_log.remove cfg)
        (fun () ->
          let t = Delta_log.start cfg ~base:"BASEPAYLOAD" in
          List.iter (Delta_log.append t)
            [ "alpha"; "beta"; "gamma"; "delta" ];
          Delta_log.close t;
          let rng = Random.State.make [| seed |] in
          let targets =
            [ Delta_log.base_path cfg ~generation:1;
              Delta_log.log_path cfg ~generation:1;
              Delta_log.current_path cfg
            ]
          in
          for _ = 1 to flips do
            let path = List.nth targets (Random.State.int rng 3) in
            let len = String.length (read_file path) in
            if len > 0 then flip_byte path (Random.State.int rng len)
          done;
          (* any constructor is acceptable; raising is the only failure *)
          match Delta_log.load cfg with
          | Delta_log.Fresh | Delta_log.Resumed _
          | Delta_log.Resumed_partial _ | Delta_log.Rejected _ ->
            true))

(* -- qcheck: the payload codecs on the engine's real shapes ------------- *)

let s2 = schema [ ("E", 2); ("P", 1) ]

(* A constant of the given shape (0 named, 1 indexed, 2 null, 3 pair);
   pair components are drawn from all four shapes, two levels deep. *)
let gen_constant shape : Constant.t QCheck.Gen.t =
 fun st ->
  let rec go shape depth =
    match shape with
    | 0 -> Constant.named (Printf.sprintf "c%d" (Random.State.int st 5))
    | 1 -> Constant.indexed (Random.State.int st 50)
    | 2 -> Constant.null (Random.State.int st 50)
    | _ ->
      let sub () =
        go (Random.State.int st (if depth > 0 then 4 else 3)) (depth - 1)
      in
      Constant.pair (sub ()) (sub ())
  in
  go shape 1

let gen_instance : Instance.t QCheck.Gen.t =
 fun st ->
  let extra =
    List.init (Random.State.int st 4) (fun _ -> Random.State.int st 4)
  in
  (* every shape at least once, then a few of random shape *)
  let pool = List.map (fun sh -> gen_constant sh st) ([ 0; 1; 2; 3 ] @ extra) in
  let pick () = List.nth pool (Random.State.int st (List.length pool)) in
  let density = Random.State.float st 0.8 in
  let facts =
    List.concat_map
      (fun r ->
        List.init 6 (fun _ ->
            Fact.make r (List.init (Relation.arity r) (fun _ -> pick ())))
        |> List.filter (fun _ -> Random.State.float st 1.0 < density))
      (Schema.relations s2)
  in
  (* the full pool as domain: it may exceed the active domain *)
  Instance.of_facts ~dom:pool s2 facts

let gen_tgd : Tgd.t QCheck.Gen.t =
 fun st ->
  Tgd_workload.Gen.random_tgd st s2 ~n:3 ~m:2 ~body_atoms:2 ~head_atoms:2

let roundtrip equal write read v =
  let buf = Buffer.create 256 in
  write buf v;
  let r = Wire.reader (Buffer.contents buf) in
  equal v (read r) && Wire.at_end r

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: read ∘ write = id on instances and tgds"
    ~count:60
    (QCheck.make QCheck.Gen.(pair gen_instance gen_tgd))
    (fun (i, tgd) ->
      roundtrip Instance.equal Codec.write_instance Codec.read_instance i
      && roundtrip Tgd.equal Codec.write_tgd Codec.read_tgd tgd)

(* Decoders are total: a valid encoding with a few bytes overwritten, and
   maybe cut short, decodes to some value or raises [Wire.Corrupt] —
   never another exception. *)
let mutated_decodes_or_corrupt write read v (seed, flips, cut) =
  let buf = Buffer.create 256 in
  write buf v;
  let b = Buffer.to_bytes buf in
  let rng = Random.State.make [| seed |] in
  let len = Bytes.length b in
  for _ = 1 to flips do
    if len > 0 then
      Bytes.set b (Random.State.int rng len) (Char.chr (Random.State.int rng 256))
  done;
  let s = Bytes.to_string b in
  let s = if cut then String.sub s 0 (Random.State.int rng (len + 1)) else s in
  match read (Wire.reader s) with
  | _ -> true
  | exception Wire.Corrupt _ -> true

let prop_codec_mutation_total =
  QCheck.Test.make
    ~name:"codec: mutated bytes decode or raise Wire.Corrupt" ~count:400
    (QCheck.make
       QCheck.Gen.(
         pair (pair gen_instance gen_tgd)
           (triple (int_range 0 1_000_000) (int_range 1 4) bool)))
    (fun ((i, tgd), m) ->
      mutated_decodes_or_corrupt Codec.write_instance Codec.read_instance i m
      && mutated_decodes_or_corrupt Codec.write_tgd Codec.read_tgd tgd m)

(* -- chase over the chain ----------------------------------------------- *)

let fresh_journal log = { Delta_log.log; resumed = None }

let load_chase log = Delta_log.load_journal ~decode:Chase.decode_chain log

let chase_fixture () =
  let sigma = Families.layered ~copies:2 ~depth:3 in
  let db = Families.layered_instance ~copies:2 ~depth:3 ~chain:6 in
  (sigma, db)

let test_chase_truncate_resume_equals_cold () =
  let sigma, db = chase_fixture () in
  let cold = Chase.restricted ~analyze:false sigma db in
  List.iter
    (fun (jobs, chunk) ->
      let log = Chase.log_config ~dir:(fresh_dir ()) ~name:"chase" () in
      Fun.protect
        ~finally:(fun () -> Delta_log.remove log)
        (fun () ->
          let r1 =
            Chase.restricted_resumable
              ~budget:(Budget.make ~rounds:2 ())
              ~jobs ~chunk ~every:1 ~journal:(fresh_journal log) sigma db
          in
          check_bool "first run truncated" true
            (match r1.Chase.outcome with
            | Chase.Truncated _ -> true
            | Chase.Terminated -> false);
          (* the chain replays to exactly the state the run returned *)
          let journal =
            match load_chase log with
            | Ok ({ Delta_log.resumed = Some _; _ } as j) -> j
            | Ok _ -> Alcotest.fail "truncated run must leave a chain"
            | Error m -> Alcotest.fail (String.concat "; " m)
          in
          let resumed = Option.get journal.Delta_log.resumed in
          check_bool "replay = returned instance" true
            (Instance.equal
               resumed.Delta_log.state.Chase.chk_instance
               r1.Chase.instance);
          check_int "replay rounds" r1.Chase.rounds
            resumed.Delta_log.state.Chase.chk_rounds;
          check_int "replay fired" r1.Chase.fired
            resumed.Delta_log.state.Chase.chk_fired;
          check_bool "clean chain" true (resumed.Delta_log.warnings = []);
          let r2 =
            Chase.restricted_resumable ~jobs ~chunk ~every:1 ~journal sigma db
          in
          check_bool
            (Printf.sprintf "resumed = cold at jobs %d chunk %d" jobs chunk)
            true
            (r2.Chase.outcome = Chase.Terminated
            && Instance.equal r2.Chase.instance cold.Chase.instance
            && r2.Chase.fired = cold.Chase.fired);
          (* a terminated resumable run removes its chain *)
          check_bool "chain removed on termination" true
            (load_chase log = Ok (fresh_journal log))))
    [ (1, 1); (1, 4); (1, 64); (2, 1); (2, 4); (2, 64) ]

let test_chase_fuel_truncation_syncs_chain () =
  (* fuel trips mid-round (a non-barrier accident): the chain must still
     replay to exactly the returned instance, via the final diff record *)
  let sigma, db = chase_fixture () in
  let log = Chase.log_config ~dir:(fresh_dir ()) ~name:"chase" () in
  Fun.protect
    ~finally:(fun () -> Delta_log.remove log)
    (fun () ->
      let r =
        Chase.restricted_resumable
          ~budget:(Budget.make ~fuel:7 ())
          ~every:2 ~journal:(fresh_journal log) sigma db
      in
      match r.Chase.outcome with
      | Chase.Terminated -> Alcotest.fail "fuel 7 must truncate this fixture"
      | Chase.Truncated _ -> (
        match load_chase log with
        | Ok { Delta_log.resumed = Some resumed; _ } ->
          check_bool "chain replays the mid-round prefix" true
            (Instance.equal
               resumed.Delta_log.state.Chase.chk_instance
               r.Chase.instance)
        | _ -> Alcotest.fail "expected a loadable chain"))

(* A chase of more rounds than a generation holds records (64): at
   [every = 1] the chain compacts mid-run, and the replay of the compacted
   chain is still the returned state, from which a resume reaches the cold
   result. *)
let test_chase_long_run_compacts () =
  let n = 70 in
  let sigma = tgds "E(x,y) -> T(x,y). T(x,y), E(y,z) -> T(x,z)." in
  let db =
    inst ~schema:(schema [ ("E", 2); ("T", 2) ])
      (String.concat " "
         (List.init n (fun i -> Printf.sprintf "E(c%d,c%d)." i (i + 1))))
  in
  let budget = Budget.make ~rounds:200 () in
  let cold = Chase.restricted ~analyze:false ~budget sigma db in
  check_bool "cold run needs more than 65 rounds" true (cold.Chase.rounds > 65);
  let log = Chase.log_config ~dir:(fresh_dir ()) ~name:"long" () in
  Fun.protect
    ~finally:(fun () -> Delta_log.remove log)
    (fun () ->
      let compactions0 = (Stats.global ()).Stats.compactions in
      let r1 =
        Chase.restricted_resumable ~budget:(Budget.make ~rounds:66 ()) ~every:1
          ~journal:(fresh_journal log) sigma db
      in
      check_bool "compacted mid-run" true
        ((Stats.global ()).Stats.compactions > compactions0);
      let journal =
        match load_chase log with
        | Ok ({ Delta_log.resumed = Some r; _ } as j) ->
          check_bool "replay = returned instance" true
            (Instance.equal r.Delta_log.state.Chase.chk_instance
               r1.Chase.instance);
          check_int "replay rounds" 66 r.Delta_log.state.Chase.chk_rounds;
          check_bool "past the first generation" true
            (r.Delta_log.chain.Delta_log.generation > 1);
          j
        | _ -> Alcotest.fail "truncated run must leave a chain"
      in
      let r2 = Chase.restricted_resumable ~budget ~every:1 ~journal sigma db in
      check_bool "resumed = cold" true
        (r2.Chase.outcome = Chase.Terminated
        && Instance.equal r2.Chase.instance cold.Chase.instance);
      check_bool "chain removed on termination" true
        (load_chase log = Ok (fresh_journal log)))

let prop_chase_chain_matrix =
  QCheck.Test.make
    ~name:"chain replay = truncated state (random fixture × jobs × chunk)"
    ~count:6
    QCheck.(
      make
        Gen.(
          quad (int_range 1 2) (int_range 2 3) (int_range 3 6) (int_range 1 3)))
    (fun (copies, depth, chain, rounds) ->
      let sigma = Families.layered ~copies ~depth in
      let db = Families.layered_instance ~copies ~depth ~chain in
      List.for_all
        (fun (jobs, chunk) ->
          let log = Chase.log_config ~dir:(fresh_dir ()) ~name:"c" () in
          Fun.protect
            ~finally:(fun () -> Delta_log.remove log)
            (fun () ->
              let r =
                Chase.restricted_resumable
                  ~budget:(Budget.make ~rounds ())
                  ~jobs ~chunk ~every:1 ~journal:(fresh_journal log) sigma db
              in
              match r.Chase.outcome with
              | Chase.Terminated -> load_chase log = Ok (fresh_journal log)
              | Chase.Truncated _ -> (
                match load_chase log with
                | Ok { Delta_log.resumed = Some resumed; _ } ->
                  Instance.equal
                    resumed.Delta_log.state.Chase.chk_instance
                    r.Chase.instance
                  && resumed.Delta_log.state.Chase.chk_rounds
                     = r.Chase.rounds
                | _ -> false)))
        [ (1, 1); (1, 4); (1, 64); (2, 1); (2, 4); (2, 64) ])

(* -- rewrite sweep over the chain --------------------------------------- *)

let test_rewrite_incremental_resume_equals_cold () =
  let sigma =
    tgds "G(x,y), P(y) -> H(x). H(x) -> P(x). G(x,y) -> G(y,x)."
  in
  let config =
    { Rewrite.default_config with
      Rewrite.memo = false;
      minimize = false;
      chunk = Some 1 (* batches of 4 candidates: fine-grained commits *)
    }
  in
  let cold = Budget.value (Rewrite.fg_to_g ~config sigma) in
  let cfg = Rewrite.log_config ~dir:(fresh_dir ()) ~name:"sweep" () in
  Fun.protect
    ~finally:(fun () -> Delta_log.remove cfg)
    (fun () ->
      (* find a fuel that trips after at least one committed batch, so the
         resume is a genuine mid-sweep continuation *)
      let truncated_midsweep fuel =
        Delta_log.remove cfg;
        match
          Rewrite.fg_to_g
            ~config:
              { config with
                Rewrite.budget = Budget.make ~fuel ();
                checkpoint = Some (fresh_journal cfg);
                checkpoint_every = 1
              }
            sigma
        with
        | Budget.Complete _ -> None
        | Budget.Truncated { partial; _ } -> (
          match partial.Rewrite.checkpoint with
          | Some cp when cp.Rewrite.cursor > 0 -> Some ()
          | _ -> None)
      in
      (match
         List.find_opt
           (fun fuel -> truncated_midsweep fuel <> None)
           [ 60; 120; 240; 480; 960; 1_920 ]
       with
      | Some _ -> ()
      | None -> Alcotest.fail "no fuel truncates this sweep mid-batch");
      let resumed =
        match Delta_log.load_journal ~decode:Rewrite.decode_chain cfg with
        | Ok { Delta_log.resumed = Some r; _ } -> r
        | _ -> Alcotest.fail "truncated sweep must leave a loadable chain"
      in
      check_bool "clean chain" true (resumed.Delta_log.warnings = []);
      check_bool "cursor at a batch boundary" true
        (resumed.Delta_log.state.Rewrite.cursor > 0);
      let r2 =
        Budget.value
          (Rewrite.fg_to_g ~config
             ~resume:resumed.Delta_log.state sigma)
      in
      check_bool "resumed outcome = cold outcome" true
        (r2.Rewrite.outcome = cold.Rewrite.outcome))

(* The disk path: the journal that resumed the chain goes in the config,
   supplies the resume point and appends to the same chain, which the
   completed sweep removes.  An in-memory [?resume] on top is refused. *)
let test_rewrite_resumed_journal_completes () =
  let sigma =
    tgds "G(x,y), P(y) -> H(x). H(x) -> P(x). G(x,y) -> G(y,x)."
  in
  let config =
    { Rewrite.default_config with
      Rewrite.memo = false;
      minimize = false;
      chunk = Some 1
    }
  in
  let cold = Budget.value (Rewrite.fg_to_g ~config sigma) in
  let cfg = Rewrite.log_config ~dir:(fresh_dir ()) ~name:"sweep" () in
  let load () = Delta_log.load_journal ~decode:Rewrite.decode_chain cfg in
  Fun.protect
    ~finally:(fun () -> Delta_log.remove cfg)
    (fun () ->
      let truncated =
        Rewrite.fg_to_g
          ~config:
            { config with
              Rewrite.budget = Budget.make ~fuel:240 ();
              checkpoint = Some (fresh_journal cfg)
            }
          sigma
      in
      check_bool "fuel 240 truncates the sweep" true
        (match truncated with
        | Budget.Truncated _ -> true
        | Budget.Complete _ -> false);
      let journal =
        match load () with
        | Ok ({ Delta_log.resumed = Some _; _ } as j) -> j
        | _ -> Alcotest.fail "truncated sweep must leave a loadable chain"
      in
      let cp = (Option.get journal.Delta_log.resumed).Delta_log.state in
      check_bool "?resume with a resumed journal is refused" true
        (match
           Rewrite.fg_to_g
             ~config:{ config with Rewrite.checkpoint = Some journal }
             ~resume:cp sigma
         with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let r2 =
        Budget.value
          (Rewrite.fg_to_g
             ~config:{ config with Rewrite.checkpoint = Some journal }
             sigma)
      in
      check_bool "resumed outcome = cold outcome" true
        (r2.Rewrite.outcome = cold.Rewrite.outcome);
      check_bool "chain removed on completion" true
        (load () = Ok (fresh_journal cfg)))

let suite =
  [ case "wire: varint round-trip" test_varint_roundtrip;
    case "wire: corrupt varints raise Corrupt" test_varint_corrupt;
    case "wire: crc32 IEEE check value" test_crc32_vector;
    case "fresh, then chain round-trip" test_fresh_then_chain_roundtrip;
    case "appends extend a resumed chain" test_append_after_resume;
    case "compaction prunes beyond keep" test_compaction_prunes_generations;
    case "kind mismatch is Rejected" test_kind_mismatch_rejected;
    case "torn tail: silent drop, clean resume" test_torn_tail_is_clean;
    case "mid-chain corruption: partial resume"
      test_midchain_corruption_is_partial;
    case "corrupt base: fallback, then Rejected"
      test_corrupt_base_falls_back_or_rejects;
    case "inspect reports per-record status" test_inspect_reports_status;
    QCheck_alcotest.to_alcotest prop_chain_roundtrip;
    QCheck_alcotest.to_alcotest prop_fuzz_never_crashes;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_mutation_total;
    slow_case "chase: truncate, replay, resume = cold (jobs × chunk)"
      test_chase_truncate_resume_equals_cold;
    case "chase: fuel trip syncs the chain mid-round"
      test_chase_fuel_truncation_syncs_chain;
    case "chase: a 65+-round run compacts, replays and resumes"
      test_chase_long_run_compacts;
    QCheck_alcotest.to_alcotest prop_chase_chain_matrix;
    case "rewrite: incremental sink resumes to the cold outcome"
      test_rewrite_incremental_resume_equals_cold;
    case "rewrite: a resumed journal completes and removes its chain"
      test_rewrite_resumed_journal_completes
  ]
