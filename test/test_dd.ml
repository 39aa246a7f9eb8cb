(* The compressed decision-diagram subsystem (lib/dd): the four modes are
   four representations of the same function space, so every property
   here is phrased against the truth-table oracle or the plain-BDD
   kernel and quantified over all modes. *)

let qtest ?(count = 200) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

let nvars = 6
let arb = Tgen.arbitrary_expr ~nvars ~depth:6

(* build [e] in a fresh manager of [mode] *)
let rec build man = function
  | Tgen.T -> Dd.tt man
  | Tgen.F -> Dd.ff man
  | Tgen.V i -> Dd.ithvar man i
  | Tgen.Not e -> Dd.bnot man (build man e)
  | Tgen.And (a, b) -> Dd.band man (build man a) (build man b)
  | Tgen.Or (a, b) -> Dd.bor man (build man a) (build man b)
  | Tgen.Xor (a, b) -> Dd.bxor man (build man a) (build man b)
  | Tgen.Imp (a, b) -> Dd.bor man (Dd.bnot man (build man a)) (build man b)
  | Tgen.Ite (a, b, c) ->
      Dd.ite man (build man a) (build man b) (build man c)

let setup mode e =
  let man = Dd.create ~nvars ~mode () in
  (man, build man e, Tgen.build_oracle nvars e)

(* semantic equality against the oracle over the whole assignment space *)
let agrees man u o =
  let ok = ref true in
  for asg = 0 to (1 lsl nvars) - 1 do
    if Dd.eval man u (fun v -> asg land (1 lsl v) <> 0) <> Oracle.eval o asg
    then ok := false
  done;
  !ok

let for_all_modes prop = List.for_all prop Dd.all_modes

(* ------------------------------------------------------------------ *)
(* Truth-table agreement and canonicity                                 *)
(* ------------------------------------------------------------------ *)

let prop_connectives =
  qtest ~count:400 "connectives match oracle in all four modes" arb (fun e ->
      for_all_modes (fun mode ->
          let man, u, o = setup mode e in
          agrees man u o))

let prop_canonical =
  qtest "equal functions are physically equal (all modes)"
    QCheck.(pair arb arb)
    (fun (e1, e2) ->
      for_all_modes (fun mode ->
          let man = Dd.create ~nvars ~mode () in
          let u1 = build man e1 and u2 = build man e2 in
          let o1 = Tgen.build_oracle nvars e1
          and o2 = Tgen.build_oracle nvars e2 in
          Oracle.equal o1 o2 = Dd.equal u1 u2))

let prop_double_negation =
  qtest "bnot (bnot f) is physically f (all modes)" arb (fun e ->
      for_all_modes (fun mode ->
          let man, u, _ = setup mode e in
          Dd.equal u (Dd.bnot man (Dd.bnot man u))))

let prop_exists =
  qtest "exists matches oracle (all modes)"
    QCheck.(pair arb (make (Tgen.var_subset_gen nvars)))
    (fun (e, vs) ->
      for_all_modes (fun mode ->
          let man, u, o = setup mode e in
          agrees man (Dd.exists man ~vars:vs u) (Oracle.exists o vs)
          && agrees man (Dd.forall man ~vars:vs u) (Oracle.forall o vs)))

let prop_restrict =
  qtest "restrict agrees with f on the care set (all modes)"
    QCheck.(pair arb arb)
    (fun (ef, ec) ->
      for_all_modes (fun mode ->
          let man = Dd.create ~nvars ~mode () in
          let f = build man ef and c = build man ec in
          let r = Dd.restrict man f ~care:c in
          let ok = ref true in
          for asg = 0 to (1 lsl nvars) - 1 do
            let lookup v = asg land (1 lsl v) <> 0 in
            if Dd.eval man c lookup then
              if Dd.eval man r lookup <> Dd.eval man f lookup then ok := false
          done;
          !ok))

let prop_count_minterms =
  qtest "count_minterms matches oracle (all modes)" arb (fun e ->
      for_all_modes (fun mode ->
          let man, u, o = setup mode e in
          Dd.count_minterms man u ~nvars = float_of_int (Oracle.count o)))

(* ------------------------------------------------------------------ *)
(* Conversions                                                          *)
(* ------------------------------------------------------------------ *)

let prop_bdd_round_trip =
  qtest "to_bdd (of_bdd f) == f, and of_bdd is canonical (all modes)" arb
    (fun e ->
      let bman, f, _ = Tgen.setup ~nvars e in
      for_all_modes (fun mode ->
          let dman = Dd.create ~nvars ~mode () in
          let u = Dd.of_bdd dman bman f in
          (* converting is the same as building natively ... *)
          Dd.equal u (build dman e)
          (* ... and converting back recovers the original exactly *)
          && Bdd.equal f (Dd.to_bdd dman bman u)))

let prop_cross_mode =
  qtest "convert between every mode pair preserves the function" arb (fun e ->
      let o = Tgen.build_oracle nvars e in
      List.for_all
        (fun m1 ->
          let src = Dd.create ~nvars ~mode:m1 () in
          let u = build src e in
          List.for_all
            (fun m2 ->
              let dst = Dd.create ~nvars ~mode:m2 () in
              let v = Dd.convert ~src ~dst u in
              (* semantically the function, and canonical in dst: equal to
                 the native build *)
              agrees dst v o && Dd.equal v (build dst e))
            Dd.all_modes)
        Dd.all_modes)

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let prop_serialize_round_trip =
  qtest "import (export f) round-trips, same and fresh manager (all modes)"
    arb (fun e ->
      for_all_modes (fun mode ->
          let man, u, o = setup mode e in
          let s = Dd.export man u in
          Dd.equal u (Dd.import man s)
          &&
          let man2 = Dd.create ~nvars ~mode () in
          agrees man2 (Dd.import man2 s) o))

let prop_binary_round_trip =
  qtest "serialized_of_string (serialized_to_string s) == s (all modes)" arb
    (fun e ->
      for_all_modes (fun mode ->
          let man, u, _ = setup mode e in
          let s = Dd.export man u in
          Dd.serialized_of_string (Dd.serialized_to_string s) = s))

let prop_cross_mode_import =
  qtest ~count:100 "importing a frame into a different-mode manager converts"
    arb (fun e ->
      let o = Tgen.build_oracle nvars e in
      for_all_modes (fun m1 ->
          let man, u, _ = setup m1 e in
          let str = Dd.serialized_to_string (Dd.export man u) in
          for_all_modes (fun m2 ->
              let man2 = Dd.create ~nvars ~mode:m2 () in
              match Dd.read_string man2 str with
              | [ v ] -> agrees man2 v o
              | _ -> false)))

(* mirrors test_serialize's corruption property: any mutilation of a
   valid frame either raises [Corrupt] or yields a semantically valid
   value (flips confined to node payloads can still decode) — it must
   never crash, hang, or break the importing manager *)
let prop_corruption =
  qtest ~count:400 "truncation/bit-flips raise Corrupt or decode cleanly"
    QCheck.(triple arb (int_bound 1000) (int_bound 7))
    (fun (e, pos_seed, bit) ->
      for_all_modes (fun mode ->
          let man, u, _ = setup mode e in
          let good = Dd.serialized_to_string (Dd.export man u) in
          let len = String.length good in
          let mutations =
            [
              String.sub good 0 (pos_seed mod len);
              (let b = Bytes.of_string good in
               let pos = pos_seed mod len in
               Bytes.set b pos
                 (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
               Bytes.to_string b);
            ]
          in
          List.for_all
            (fun s ->
              match Dd.read_string man s with
              | exception Dd.Corrupt _ -> true
              | vs ->
                  (* decoded: whatever came out must be well-formed enough
                     to traverse, and the manager still canonical *)
                  List.iter (fun v -> ignore (Dd.size v)) vs;
                  Dd.equal u (Dd.import man (Dd.export man u)))
            mutations))

let test_legacy_bdd1 () =
  (* read_string accepts plain-BDD "BDD1" frames into every mode *)
  let bman = Bdd.create ~nvars () in
  let f =
    Bdd.bor bman
      (Bdd.band bman (Bdd.ithvar bman 0) (Bdd.ithvar bman 3))
      (Bdd.ithvar bman 5)
  in
  let str = Bdd.serialized_to_string (Bdd.export bman f) in
  List.iter
    (fun mode ->
      let dman = Dd.create ~nvars ~mode () in
      match Dd.read_string dman str with
      | [ u ] ->
          Alcotest.(check bool)
            ("legacy BDD1 into " ^ Dd.mode_name mode)
            true
            (Bdd.equal f (Dd.to_bdd dman bman u))
      | _ -> Alcotest.fail "legacy BDD1: expected one root")
    Dd.all_modes

(* a nine-byte varint whose ninth byte sets the sign bit, wherever a
   DDC1 frame holds a count or a field *)
let test_negative_varints () =
  let neg9 = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  List.iter
    (fun (what, frame) ->
      match Dd.serialized_of_string frame with
      | exception Dd.Corrupt _ -> ()
      | exception e ->
          Alcotest.failf "%s: expected Dd.Corrupt, got %s" what
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("mode", "DDC1" ^ neg9);
      ("variable count", "DDC1\x00" ^ neg9);
      ("node count", "DDC1\x00\x02" ^ neg9);
      ("node field", "DDC1\x00\x02\x01" ^ neg9 ^ "\x00\x01\x00\x01\x02");
      ("root count", "DDC1\x00\x02\x00" ^ neg9);
      ("root", "DDC1\x00\x02\x00\x01" ^ neg9);
    ]

(* ------------------------------------------------------------------ *)
(* Compression unit tests                                               *)
(* ------------------------------------------------------------------ *)

let test_chain_compression () =
  (* the all-zeros cube over a wide universe: a plain BDD is one ¬x-node
     per level, CBDD folds the whole run into a single chain node *)
  let wide = 40 in
  let zeros mode =
    let man = Dd.create ~nvars:wide ~mode () in
    let u =
      Dd.cube_of_literals man (List.init wide (fun v -> (v, false)))
    in
    (man, u)
  in
  let _, b = zeros Dd.Bdd in
  Alcotest.(check int) "plain bdd all-zero cube" (wide + 2) (Dd.size b);
  let _, c = zeros Dd.Cbdd in
  Alcotest.(check int) "cbdd all-zero cube" 3 (Dd.size c);
  let _, z = zeros Dd.Zdd in
  Alcotest.(check bool) "zdd all-zero cube is small" true (Dd.size z <= 2);
  (* the Czdd mirror: tautology = don't-care chain, n nodes in Zdd, 1 in
     Czdd *)
  (* ff is not reachable from the tautology, so the counts are the
     don't-care chain plus the true leaf *)
  let zman = Dd.create ~nvars:wide ~mode:Dd.Zdd () in
  Alcotest.(check int) "zdd tautology" (wide + 1) (Dd.size (Dd.tt zman));
  let czman = Dd.create ~nvars:wide ~mode:Dd.Czdd () in
  Alcotest.(check int) "czdd tautology" 2 (Dd.size (Dd.tt czman))

let prop_chain_accounting =
  qtest ~count:100 "chain folds never exceed mk calls" arb (fun e ->
      for_all_modes (fun mode ->
          let man = Dd.create ~nvars ~mode () in
          ignore (build man e);
          let folds, mk = Dd.chain_counters man in
          folds >= 0 && folds <= mk))

let prop_shared_table =
  qtest ~count:100 "~shared:true builds the same canonical diagrams" arb
    (fun e ->
      for_all_modes (fun mode ->
          let seq = Dd.create ~nvars ~mode () in
          let par = Dd.create ~nvars ~mode ~shared:true () in
          let us = build seq e and up = build par e in
          Dd.size us = Dd.size up
          && Dd.equal (Dd.convert ~src:par ~dst:seq up) us))

(* ------------------------------------------------------------------ *)
(* The paper's algorithms are mode-independent                          *)
(* ------------------------------------------------------------------ *)

(* HB/SP/UA/RUA run on the plain-BDD kernel; converting their results
   into any compressed mode must preserve the function exactly.  This is
   the acceptance property: the approximation pipeline composes with the
   compressed representations without changing a single minterm. *)
let prop_approx_modes =
  qtest ~count:60 "approx results identical in every mode" arb (fun e ->
      let bman, f, _ = Tgen.setup ~nvars e in
      List.for_all
        (fun meth ->
          let results =
            [ Approx.under bman meth f; Approx.over bman meth f ]
          in
          List.for_all
            (fun g ->
              let og = Oracle.of_bdd bman nvars g in
              for_all_modes (fun mode ->
                  let dman = Dd.create ~nvars ~mode () in
                  let u = Dd.of_bdd dman bman g in
                  agrees dman u og
                  && Bdd.equal g (Dd.to_bdd dman bman u)
                  && Dd.count_minterms dman u ~nvars
                     = Bdd.count_minterms bman g ~nvars))
            results)
        Approx.all_methods)

let tests =
  ( "dd",
    [
      prop_connectives;
      prop_canonical;
      prop_double_negation;
      prop_exists;
      prop_restrict;
      prop_count_minterms;
      prop_bdd_round_trip;
      prop_cross_mode;
      prop_serialize_round_trip;
      prop_binary_round_trip;
      prop_cross_mode_import;
      prop_corruption;
      Alcotest.test_case "legacy BDD1 frames" `Quick test_legacy_bdd1;
      Alcotest.test_case "a negative nine-byte varint is Corrupt" `Quick
        test_negative_varints;
      Alcotest.test_case "chain compression" `Quick test_chain_compression;
      prop_chain_accounting;
      prop_shared_table;
      prop_approx_modes;
    ] )
