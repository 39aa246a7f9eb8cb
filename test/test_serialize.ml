(* Serialization: export/import round-trips (same manager, fresh manager,
   manager with a different variable order), the binary encoding, and
   clean failure on corrupt input. *)

let qtest ?(count = 200) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

let nvars = 6

(* semantic equality of a BDD (in [man]) against the oracle, over every
   assignment of the [nvars]-variable space *)
let agrees man g o =
  let ok = ref true in
  for asg = 0 to (1 lsl nvars) - 1 do
    let bdd_val = Bdd.eval man g (fun v -> asg land (1 lsl v) <> 0) in
    if bdd_val <> Oracle.eval o asg then ok := false
  done;
  !ok

(* the acceptance property: 1000 random functions survive
   export -> import into a fresh manager *)
let prop_round_trip =
  qtest ~count:1000 "import (export f) == f (fresh manager)"
    (Tgen.arbitrary_expr ~nvars ~depth:6)
    (fun e ->
      let man, f, o = Tgen.setup ~nvars e in
      let man2 = Bdd.create () in
      let g = Bdd.import man2 (Bdd.export man f) in
      agrees man2 g o)

let prop_round_trip_same_manager =
  qtest "import (export f) is physically f in the same manager"
    (Tgen.arbitrary_expr ~nvars ~depth:6)
    (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Bdd.equal f (Bdd.import man (Bdd.export man f)))

let prop_cross_order =
  qtest ~count:300 "import into a manager with a different variable order"
    QCheck.(
      pair (Tgen.arbitrary_expr ~nvars ~depth:6) (make (Tgen.permutation_gen nvars)))
    (fun (e, perm) ->
      let man, f, o = Tgen.setup ~nvars e in
      let man2 = Bdd.create ~nvars () in
      ignore (Bdd.reorder man2 ~order:perm ~roots:[]);
      let g = Bdd.import man2 (Bdd.export man f) in
      (* the rebuilt BDD is semantically f and canonical under the new
         order: re-exporting and re-importing it changes nothing *)
      agrees man2 g o
      && Bdd.equal g (Bdd.import man2 (Bdd.export man2 g)))

let prop_binary_round_trip =
  qtest "serialized_of_string (serialized_to_string s) == s"
    (Tgen.arbitrary_expr ~nvars ~depth:6)
    (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      let s = Bdd.export man f in
      Bdd.serialized_of_string (Bdd.serialized_to_string s) = s)

let test_export_list_sharing () =
  let man = Bdd.create ~nvars:8 () in
  let f = Bdd.conj man (List.init 6 (Bdd.ithvar man)) in
  let g = Bdd.bor man f (Bdd.nithvar man 7) in
  let s = Bdd.export_list man [ f; g; f ] in
  (* the shared DAG is serialized once, not per root *)
  Alcotest.(check int)
    "node count" (Bdd.shared_size [ f; g ])
    (Array.length s.Bdd.s_nodes);
  let man2 = Bdd.create () in
  match Bdd.import_list man2 s with
  | [ f'; g'; f'' ] ->
      Alcotest.(check bool) "sharing preserved" true (Bdd.equal f' f'');
      Alcotest.(check int)
        "shared size preserved"
        (Bdd.shared_size [ f; g ])
        (Bdd.shared_size [ f'; g' ])
  | _ -> Alcotest.fail "import_list arity"

let test_file_round_trip () =
  let man = Bdd.create ~nvars:8 () in
  let f =
    Bdd.bxor man
      (Bdd.conj man (List.init 4 (Bdd.ithvar man)))
      (Bdd.disj man (List.init 8 (Bdd.ithvar man)))
  in
  let path = Filename.temp_file "bddser" ".bdd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bdd.save path (Bdd.export man f);
      let g = Bdd.import man (Bdd.load path) in
      Alcotest.(check bool) "file round trip" true (Bdd.equal f g))

let check_corrupt name fn =
  match fn () with
  | exception Bdd.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Bdd.Corrupt, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Bdd.Corrupt, accepted the input" name

let test_corrupt_strings () =
  let man = Bdd.create ~nvars:4 () in
  let f = Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 3) in
  let good = Bdd.serialized_to_string (Bdd.export man f) in
  check_corrupt "empty" (fun () -> Bdd.serialized_of_string "");
  check_corrupt "bad magic" (fun () ->
      Bdd.serialized_of_string ("XXX1" ^ String.sub good 4 (String.length good - 4)));
  check_corrupt "truncated" (fun () ->
      Bdd.serialized_of_string (String.sub good 0 (String.length good - 1)));
  check_corrupt "trailing garbage" (fun () ->
      Bdd.serialized_of_string (good ^ "\x00"));
  check_corrupt "length bomb" (fun () ->
      (* announces 2^40 nodes in a few bytes: must be rejected before any
         allocation, not after *)
      Bdd.serialized_of_string
        ("BDD1" ^ "\x00" ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x20"));
  (* a nine-byte count whose ninth byte sets the sign bit: a negative
     count must fail as Corrupt, not reach an allocation *)
  let neg9 = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  check_corrupt "negative variable count" (fun () ->
      Bdd.serialized_of_string ("BDD1" ^ neg9));
  check_corrupt "negative node count" (fun () ->
      Bdd.serialized_of_string ("BDD1" ^ "\x00" ^ neg9));
  check_corrupt "negative root count" (fun () ->
      Bdd.serialized_of_string ("BDD1" ^ "\x00\x00" ^ neg9))

let test_corrupt_records () =
  let man = Bdd.create () in
  let s ?(nvars = 2) ?(order = None) ~nodes ~roots () =
    {
      Bdd.s_nvars = nvars;
      s_order = (match order with Some o -> o | None -> Array.init nvars Fun.id);
      s_nodes = nodes;
      s_roots = roots;
    }
  in
  check_corrupt "forward child reference" (fun () ->
      Bdd.import man (s ~nodes:[| (0, 3, 1); (1, 2, 0) |] ~roots:[| 3 |] ()));
  check_corrupt "negative child" (fun () ->
      Bdd.import man (s ~nodes:[| (0, -1, 1) |] ~roots:[| 2 |] ()));
  check_corrupt "variable out of range" (fun () ->
      Bdd.import man (s ~nodes:[| (7, 1, 0) |] ~roots:[| 2 |] ()));
  check_corrupt "root out of range" (fun () ->
      Bdd.import man (s ~nodes:[| (0, 1, 0) |] ~roots:[| 9 |] ()));
  check_corrupt "order length mismatch" (fun () ->
      Bdd.import man
        (s ~order:(Some [| 0 |]) ~nodes:[| (0, 1, 0) |] ~roots:[| 2 |] ()));
  check_corrupt "two roots through import" (fun () ->
      Bdd.import man (s ~nodes:[| (0, 1, 0) |] ~roots:[| 2; 2 |] ()));
  (* a non-canonical chain (child on the same level as its parent) must not
     crash: the ITE fallback rebuilds it as a proper ROBDD.  Here node 3 is
     ite(x0, x0, ff) which reduces to x0. *)
  let dubious = s ~nodes:[| (0, 1, 0); (0, 2, 0) |] ~roots:[| 3 |] () in
  match Bdd.import man dubious with
  | exception Bdd.Corrupt _ -> ()
  | g ->
      Alcotest.(check bool)
        "non-canonical input rebuilt canonically" true
        (Bdd.equal g (Bdd.ithvar man 0))

let tests =
  ( "serialize",
    [
      prop_round_trip;
      prop_round_trip_same_manager;
      prop_cross_order;
      prop_binary_round_trip;
      Alcotest.test_case "export_list sharing" `Quick test_export_list_sharing;
      Alcotest.test_case "save/load file" `Quick test_file_round_trip;
      Alcotest.test_case "corrupt strings" `Quick test_corrupt_strings;
      Alcotest.test_case "corrupt records" `Quick test_corrupt_records;
    ] )
