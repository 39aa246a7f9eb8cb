(* Dedicated BLIF parser/writer tests beyond the round-trips in
   test_circuit.ml. *)

let parse = Blif.parse_string

let test_continuation_lines () =
  let c =
    parse
      ".model cont\n.inputs a b \\\nc\n.outputs o\n.names a b c o\n111 1\n.end\n"
  in
  Alcotest.(check int) "3 inputs" 3 (Circuit.num_inputs c);
  let s = Sim.initial_state c in
  let out input = List.assoc "o" (snd (Sim.step c s input)) in
  Alcotest.(check bool) "and gate" true (out (fun _ -> true));
  Alcotest.(check bool) "and gate 0" false (out (fun n -> n <> "b"))

let test_comments_everywhere () =
  let c =
    parse
      "# header\n.model cmt # trailing\n.inputs a\n.outputs o\n# middle\n.names a o\n1 1\n.end\n# after\n"
  in
  Alcotest.(check int) "1 input" 1 (Circuit.num_inputs c)

let test_constant_names () =
  let c =
    parse ".model k\n.outputs t f\n.names t\n1\n.names f\n.end\n"
  in
  let s = Sim.initial_state c in
  let _, outs = Sim.step c s (fun _ -> false) in
  Alcotest.(check bool) "true net" true (List.assoc "t" outs);
  Alcotest.(check bool) "false net" false (List.assoc "f" outs)

let test_zero_phase_cover () =
  (* off-set cover: o = NOT(a AND b) *)
  let c = parse ".model z\n.inputs a b\n.outputs o\n.names a b o\n11 0\n.end\n" in
  let s = Sim.initial_state c in
  let out input = List.assoc "o" (snd (Sim.step c s input)) in
  Alcotest.(check bool) "nand 11" false (out (fun _ -> true));
  Alcotest.(check bool) "nand 10" true (out (fun n -> n = "a"))

let test_latch_init_values () =
  let c =
    parse
      ".model li\n.outputs o\n.latch n q0 0\n.latch n q1 1\n.latch n q2 2\n.latch n q3 3\n.latch n q4\n.names q1 o\n1 1\n.names n\n.end\n"
  in
  let s = Sim.initial_state c in
  (* only the latch declared with init 1 starts true *)
  let trues = Array.to_list s |> List.filter Fun.id |> List.length in
  Alcotest.(check int) "one true" 1 trues

let test_latch_with_type_control () =
  let c =
    parse ".model tc\n.inputs clk\n.outputs o\n.latch d q re clk 0\n.names q o\n1 1\n.names q d\n0 1\n.end\n"
  in
  Alcotest.(check int) "1 latch" 1 (Circuit.num_latches c)

let expect_error text fragment =
  match parse text with
  | exception Blif.Parse_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %s (got %s)" fragment msg)
        true
        (let rec contains i =
           i + String.length fragment <= String.length msg
           && (String.sub msg i (String.length fragment) = fragment
              || contains (i + 1))
         in
         contains 0)
  | _ -> Alcotest.fail "expected a parse error"

let test_errors () =
  expect_error ".model e\n.inputs a\n.outputs o\n.names a o\n1 1\n.names a o\n0 1\n.end\n"
    "multiply defined";
  expect_error ".model e\n.outputs o\n.end\n" "undefined net";
  expect_error ".model e\n.inputs a b\n.outputs o\n.names a b o\n1 1\n.end\n"
    "width mismatch";
  expect_error ".model e\n.inputs a\n.outputs o\n.names a o\n1 1\n0 0\n.end\n"
    "mixed-phase";
  expect_error ".model e\n.latch x\n.end\n" "malformed .latch";
  expect_error ".model e\n.inputs a\n.outputs a\n.gate foo\n.end\n"
    "unsupported construct"

let test_combinational_cycle_detected () =
  expect_error
    ".model cyc\n.outputs o\n.names b a\n1 1\n.names a b\n1 1\n.names a o\n1 1\n.end\n"
    "cycle"

let test_writer_escapes_nothing_weird () =
  (* writer output must parse back for every generator *)
  List.iter
    (fun c ->
      let c' = Blif.parse_string (Blif.to_string c) in
      Alcotest.(check int)
        (Circuit.name c)
        (Circuit.num_latches c) (Circuit.num_latches c'))
    [
      Generate.lfsr ~bits:8;
      Generate.arbiter ~clients:3;
      Generate.johnson ~bits:6;
      Generate.alu ~width:4;
      Generate.multiplier ~bits:3;
      Generate.microprogram ~addr_bits:3 ~stack_depth:1 ~seed:7;
    ]

(* One damage of writer output: truncation, a flipped byte, a deleted
   token or a deleted line, placed by [pos]. *)
let damage text kind pos =
  let len = String.length text in
  match kind with
  | 0 -> String.sub text 0 (pos mod (len + 1))
  | 1 ->
      let at = pos mod len and mask = 1 + (pos / len mod 255) in
      String.mapi
        (fun i c -> if i = at then Char.chr (Char.code c lxor mask) else c)
        text
  | 2 ->
      let lines =
        List.map (String.split_on_char ' ') (String.split_on_char '\n' text)
      in
      let k = pos mod List.length (List.concat lines) in
      let _, lines =
        List.fold_left_map
          (fun i toks ->
            ( i + List.length toks,
              String.concat " " (List.filteri (fun j _ -> i + j <> k) toks) ))
          0 lines
      in
      String.concat "\n" lines
  | _ ->
      let lines = String.split_on_char '\n' text in
      let k = pos mod List.length lines in
      String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)

let prop_damage_is_parse_error =
  let circuit seed =
    if seed mod 2 = 0 then
      Generate.random_netlist ~inputs:4 ~gates:12 ~outputs:2 ~seed
    else Generate.dense_controller ~latches:4 ~seed
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"damaged writer output raises Parse_error only"
       QCheck.(triple (int_bound 1000) (int_bound 3) (int_bound 1_000_000))
       (fun (seed, kind, pos) ->
         let text = damage (Blif.to_string (circuit seed)) kind pos in
         match parse text with
         | _ -> true
         | exception Blif.Parse_error _ -> true
         | exception e ->
             QCheck.Test.fail_reportf "%s on %S" (Printexc.to_string e) text))

let tests =
  ( "blif",
    [
      Alcotest.test_case "continuation lines" `Quick test_continuation_lines;
      Alcotest.test_case "comments" `Quick test_comments_everywhere;
      Alcotest.test_case "constant names" `Quick test_constant_names;
      Alcotest.test_case "zero-phase cover" `Quick test_zero_phase_cover;
      Alcotest.test_case "latch init values" `Quick test_latch_init_values;
      Alcotest.test_case "latch type/control" `Quick
        test_latch_with_type_control;
      Alcotest.test_case "parse errors" `Quick test_errors;
      Alcotest.test_case "combinational cycle" `Quick
        test_combinational_cycle_detected;
      Alcotest.test_case "writer round-trips" `Quick
        test_writer_escapes_nothing_weird;
      prop_damage_is_parse_error;
    ] )
