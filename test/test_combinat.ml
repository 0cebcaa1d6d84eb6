open Tgd_syntax
open Helpers

let len s = Combinat.seq_length s

let test_permutations () =
  check_int "0!" 1 (len (Combinat.permutations []));
  check_int "3!" 6 (len (Combinat.permutations [ 1; 2; 3 ]));
  check_int "4!" 24 (len (Combinat.permutations [ 1; 2; 3; 4 ]));
  let perms = List.of_seq (Combinat.permutations [ 1; 2; 3 ]) in
  check_int "all distinct" 6 (List.length (List.sort_uniq compare perms));
  List.iter
    (fun p -> check_int "each is a permutation" 3 (List.length (List.sort_uniq compare p)))
    perms

let test_subsets () =
  check_int "2^4" 16 (len (Combinat.subsets [ 1; 2; 3; 4 ]));
  check_int "2^0" 1 (len (Combinat.subsets []));
  check_int "≤2 of 4" 11 (len (Combinat.subsets_up_to 2 [ 1; 2; 3; 4 ]));
  check_int "choose(4,2)" 6 (len (Combinat.subsets_of_size 2 [ 1; 2; 3; 4 ]));
  check_int "nonempty" 15 (len (Combinat.nonempty_sublists [ 1; 2; 3; 4 ]))

let test_subsets_preserve_order () =
  Combinat.subsets [ 1; 2; 3 ]
  |> Seq.iter (fun s -> check_bool "sorted sublist" true (List.sort compare s = s))

let test_tuples () =
  check_int "3^2" 9 (len (Combinat.tuples [ 1; 2; 3 ] 2));
  check_int "k=0" 1 (len (Combinat.tuples [ 1; 2; 3 ] 0));
  check_int "empty alphabet" 0 (len (Combinat.tuples ([] : int list) 2))

let bell n max_blocks = len (Combinat.growth_strings n max_blocks)

let test_growth_strings () =
  (* with enough blocks these count Bell numbers: 1, 1, 2, 5, 15 *)
  check_int "bell 0" 1 (bell 0 10);
  check_int "bell 1" 1 (bell 1 10);
  check_int "bell 2" 2 (bell 2 10);
  check_int "bell 3" 5 (bell 3 10);
  check_int "bell 4" 15 (bell 4 10);
  (* with at most 1 block there is exactly one string *)
  check_int "1 block" 1 (bell 3 1);
  (* every string is a valid restricted growth string *)
  Combinat.growth_strings 4 3
  |> Seq.iter (fun s ->
         let rec ok maxv = function
           | [] -> true
           | a :: rest -> a <= maxv + 1 && a >= 0 && ok (max maxv a) rest
         in
         match s with
         | [] -> Alcotest.fail "empty growth string of length 4"
         | a :: rest ->
           check_int "starts at 0" 0 a;
           check_bool "restricted growth" true (ok a rest))

let test_cartesian () =
  let s = Combinat.cartesian [ List.to_seq [ 1; 2 ]; List.to_seq [ 3; 4; 5 ] ] in
  check_int "2*3" 6 (len s);
  check_int "empty factor" 0
    (len (Combinat.cartesian [ List.to_seq [ 1 ]; Seq.empty ]))

let test_take () =
  Alcotest.check (Alcotest.list Alcotest.int) "take" [ 1; 2 ]
    (Combinat.take 2 (List.to_seq [ 1; 2; 3 ]))

(* The definitional recursion [subsets_up_to] unrolls; its order is what
   the candidate enumerators (and so the rewrite checkpoint cursor)
   depend on. *)
let rec subsets_up_to_def k l =
  if k <= 0 then Seq.return []
  else
    match l with
    | [] -> Seq.return []
    | x :: xs ->
      Seq.append
        (subsets_up_to_def k xs)
        (Seq.map (fun s -> x :: s) (subsets_up_to_def (k - 1) xs))

let prop_subsets_up_to_order =
  QCheck.Test.make ~name:"subsets_up_to = its definitional recursion, in order"
    ~count:200
    QCheck.(pair (int_range (-1) 4) (list_of_size (Gen.int_range 0 12) small_nat))
    (fun (k, l) ->
      List.of_seq (Combinat.subsets_up_to k l)
      = List.of_seq (subsets_up_to_def k l))

let suite =
  [ case "permutations" test_permutations;
    case "subsets" test_subsets;
    case "subsets preserve order" test_subsets_preserve_order;
    case "tuples" test_tuples;
    case "growth strings" test_growth_strings;
    case "cartesian" test_cartesian;
    case "take" test_take;
    QCheck_alcotest.to_alcotest prop_subsets_up_to_order
  ]
