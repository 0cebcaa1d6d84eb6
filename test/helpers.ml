(* Shared helpers for the test suite. *)

open Tgd_syntax
open Tgd_instance

let tgd = Tgd_parse.Parse.tgd_exn
let tgds = Tgd_parse.Parse.tgds_exn
let inst ?schema src = Tgd_parse.Parse.instance_exn ?schema src

let schema pairs = Schema.of_pairs pairs

let tgd_testable = Alcotest.testable Tgd.pp Tgd.equal
let instance_testable = Alcotest.testable Instance.pp Instance.equal
let fact_testable = Alcotest.testable Fact.pp Fact.equal
let atom_testable = Alcotest.testable Atom.pp Atom.equal

let check_tgd = Alcotest.check tgd_testable
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Three-valued entailment assertions. *)
let check_answer name expected actual =
  Alcotest.check
    (Alcotest.testable Tgd_chase.Entailment.pp_answer ( = ))
    name expected actual

let c s = Constant.named s
let v s = Variable.make s

(* A stdio serve session over a pipe pair: each line is sent and its
   response read back before the next, then end-of-input ends the
   session.  Returns the exit code and the response lines. *)
let talk_stdio config lines =
  let module Transport = Tgd_net.Transport in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let t =
    Transport.stdio config
      (Unix.in_channel_of_descr in_r)
      (Unix.out_channel_of_descr out_w)
  in
  let oc = Unix.out_channel_of_descr in_w
  and ic = Unix.in_channel_of_descr out_r in
  let resps =
    List.map
      (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic)
      lines
  in
  Unix.close in_w;
  let code = Transport.wait t in
  List.iter Unix.close [ in_r; out_r; out_w ];
  (code, resps)

