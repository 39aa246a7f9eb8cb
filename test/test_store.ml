(* Out-of-core tiered store: the spillable priority queue, the levelized
   cold-tier file format (round trips, canonical equality, corruption can
   only surface as Bdd.Corrupt — mirroring the PR-4 checkpoint
   properties), the streaming apply/reduce against the in-RAM kernel as
   oracle, and the tiered store's lifecycle. *)

let qtest ?(count = 100) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

let nvars = 6

let rm_rf dir =
  (try
     Array.iter
       (fun name ->
         try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_dir f =
  let dir = Filename.temp_file "store" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- priority queue --------------------------------------------------- *)

let prop_pq_sorted =
  qtest "pq pops in lexicographic order (with forced spills)"
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      with_dir @@ fun dir ->
      (* mem_bound below the minimum clamp (64) plus enough elements
         guarantees run files get exercised on longer lists *)
      let q = Store.Pq.create ~mem_bound:64 ~dir ~arity:2 () in
      List.iter (fun (a, b) -> Store.Pq.push q [| a; b |]) pairs;
      let n = List.length pairs in
      if Store.Pq.length q <> n then QCheck.Test.fail_report "length mismatch";
      let out = ref [] in
      let dst = Array.make 2 0 in
      while Store.Pq.pop q dst do
        out := (dst.(0), dst.(1)) :: !out
      done;
      Store.Pq.close q;
      let got = List.rev !out in
      got = List.sort compare pairs)

let test_pq_spills () =
  with_dir @@ fun dir ->
  let q = Store.Pq.create ~mem_bound:64 ~dir ~arity:1 () in
  for i = 1000 downto 1 do
    Store.Pq.push q [| i |]
  done;
  Alcotest.(check bool) "spilled runs" true (Store.Pq.runs_spilled q > 0);
  Alcotest.(check bool) "spilled bytes" true (Store.Pq.spilled_bytes q > 0);
  let dst = Array.make 1 0 in
  for i = 1 to 1000 do
    Alcotest.(check bool) "pop" true (Store.Pq.pop q dst);
    Alcotest.(check int) "order" i dst.(0)
  done;
  Alcotest.(check bool) "drained" false (Store.Pq.pop q dst);
  Store.Pq.close q;
  Alcotest.(check (array string)) "run files removed" [||] (Sys.readdir dir)

(* --- level files ------------------------------------------------------- *)

let level_file_of dir man f =
  Store.Level_file.of_serialized
    (Filename.concat dir "f.blv")
    (Bdd.export man f)

let prop_level_file_round_trip =
  qtest "level file round trip"
    (Tgen.arbitrary_expr ~nvars ~depth:6)
    (fun e ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e in
      let lf = level_file_of dir man f in
      let g = Bdd.import man (Store.Level_file.to_serialized lf) in
      Bdd.equal f g)

let prop_level_file_canonical =
  qtest "equal functions yield word-identical level files"
    (Tgen.arbitrary_expr ~nvars ~depth:6)
    (fun e ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e in
      (* same function through a different construction: double negation
         and a re-export from a second manager *)
      let man2 = Bdd.create ~nvars () in
      let f2 = Bdd.import man2 (Bdd.export man (Bdd.bnot man (Bdd.bnot man f))) in
      let a =
        Store.Level_file.of_serialized
          (Filename.concat dir "a.blv")
          (Bdd.export man f)
      and b =
        Store.Level_file.of_serialized
          (Filename.concat dir "b.blv")
          (Bdd.export man2 f2)
      in
      Store.Level_file.equal a b)

let prop_level_file_truncation =
  qtest "level file truncation -> Corrupt or identical"
    QCheck.(pair (Tgen.arbitrary_expr ~nvars ~depth:6) (int_bound 1_000_000))
    (fun (e, cut_seed) ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e in
      let path = Filename.concat dir "f.blv" in
      let orig = Store.Level_file.of_serialized path (Bdd.export man f) in
      let len = (Unix.stat path).Unix.st_size in
      let cut = cut_seed mod len in
      let truncated = Filename.concat dir "t.blv" in
      let ic = open_in_bin path in
      let data = really_input_string ic cut in
      close_in ic;
      let oc = open_out_bin truncated in
      output_string oc data;
      close_out oc;
      match Store.Level_file.open_map truncated with
      | exception Bdd.Corrupt _ -> true
      | lf -> Store.Level_file.equal orig lf)

let prop_level_file_bit_flip =
  qtest ~count:200 "level file bit flip -> Corrupt"
    QCheck.(pair (Tgen.arbitrary_expr ~nvars ~depth:6) (int_bound 10_000_000))
    (fun (e, seed) ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e in
      let path = Filename.concat dir "f.blv" in
      ignore (Store.Level_file.of_serialized path (Bdd.export man f));
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let pos = seed mod (String.length data * 8) in
      let flipped = Bytes.of_string data in
      Bytes.set flipped (pos / 8)
        (Char.chr (Char.code data.[pos / 8] lxor (1 lsl (pos mod 8))));
      let oc = open_out_bin path in
      output_bytes oc flipped;
      close_out oc;
      match Store.Level_file.open_map path with
      | exception Bdd.Corrupt _ -> true
      | _ -> false)

(* --- streaming apply / count ------------------------------------------ *)

let ops =
  [
    (Store.Stream.And, (fun man -> Bdd.band man), "and");
    (Store.Stream.Or, (fun man -> Bdd.bor man), "or");
    (Store.Stream.Diff, (fun man -> Bdd.bdiff man), "diff");
    (Store.Stream.Xor, (fun man -> Bdd.bxor man), "xor");
  ]

let prop_stream_apply_matches_kernel =
  qtest ~count:150 "streaming apply == in-RAM kernel"
    QCheck.(
      pair
        (Tgen.arbitrary_expr ~nvars ~depth:5)
        (Tgen.arbitrary_expr ~nvars ~depth:5))
    (fun (ea, eb) ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let a = Tgen.build_bdd man ea and b = Tgen.build_bdd man eb in
      let la =
        Store.Level_file.of_serialized
          (Filename.concat dir "a.blv")
          (Bdd.export man a)
      and lb =
        Store.Level_file.of_serialized
          (Filename.concat dir "b.blv")
          (Bdd.export man b)
      in
      List.for_all
        (fun (sop, bop, name) ->
          let out, _stats =
            Store.Stream.apply ~dir
              ~path:(Filename.concat dir (name ^ ".blv"))
              sop la lb
          in
          let got = Bdd.import man (Store.Level_file.to_serialized out) in
          let want = bop man a b in
          (* canonical identity: the streamed file must also be word-equal
             to a direct demotion of the oracle result *)
          Bdd.equal got want
          && Store.Level_file.equal out
               (Store.Level_file.of_serialized
                  (Filename.concat dir (name ^ ".oracle.blv"))
                  (Bdd.export man want)))
        ops)

let prop_stream_apply_bounded_memory =
  qtest ~count:20 "streaming apply with tiny queues still exact"
    QCheck.(
      pair
        (Tgen.arbitrary_expr ~nvars ~depth:6)
        (Tgen.arbitrary_expr ~nvars ~depth:6))
    (fun (ea, eb) ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let a = Tgen.build_bdd man ea and b = Tgen.build_bdd man eb in
      let la =
        Store.Level_file.of_serialized
          (Filename.concat dir "a.blv")
          (Bdd.export man a)
      and lb =
        Store.Level_file.of_serialized
          (Filename.concat dir "b.blv")
          (Bdd.export man b)
      in
      (* mem_bound clamps at 64 tuples — far below the traffic of a
         6-var apply, so queue spilling is exercised for real *)
      let out, _ =
        Store.Stream.apply ~dir ~mem_bound:1
          ~path:(Filename.concat dir "out.blv")
          Store.Stream.And la lb
      in
      Bdd.equal
        (Bdd.import man (Store.Level_file.to_serialized out))
        (Bdd.band man a b))

let prop_stream_count_minterms =
  qtest "streaming minterm count == kernel count"
    (Tgen.arbitrary_expr ~nvars ~depth:6)
    (fun e ->
      with_dir @@ fun dir ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e in
      let lf = level_file_of dir man f in
      Store.Stream.count_minterms ~dir lf = Bdd.count_minterms man f ~nvars)

(* --- tiered store ------------------------------------------------------ *)

let test_tiered_round_trip () =
  with_dir @@ fun dir ->
  let man = Bdd.create ~nvars () in
  let f =
    Bdd.bxor man
      (Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 3))
      (Bdd.bor man (Bdd.ithvar man 1) (Bdd.ithvar man 5))
  in
  let st = Store.Tiered.create ~dir man in
  let h = Store.Tiered.demote st f in
  Alcotest.(check bool) "cold nodes" true (Store.Tiered.cold_nodes st > 0);
  Alcotest.(check int)
    "stats cold_nodes" (Store.Tiered.cold_nodes st)
    (List.assoc "cold_nodes" (Bdd.stats man));
  Alcotest.(check bool)
    "stats spilled_bytes" true
    (List.assoc "spilled_bytes" (Bdd.stats man) > 0);
  Alcotest.(check bool) "promote" true (Bdd.equal f (Store.Tiered.promote st h));
  (* spilling drops the mappings; the next access remaps and re-verifies *)
  Store.Tiered.spill st;
  Alcotest.(check bool)
    "promote after spill" true
    (Bdd.equal f (Store.Tiered.promote st h));
  let g = Bdd.band man f (Bdd.ithvar man 2) in
  let hg = Store.Tiered.demote st g in
  let hand = Store.Tiered.apply st Store.Stream.And h hg in
  Alcotest.(check bool)
    "cold apply" true
    (Bdd.equal (Bdd.band man f g) (Store.Tiered.promote st hand));
  Alcotest.(check (float 0.0))
    "cold count" (Bdd.count_minterms man g ~nvars)
    (Store.Tiered.count_minterms st hg);
  Alcotest.(check bool) "equal (and f g) g" true (Store.Tiered.equal st hand hg);
  Store.Tiered.drop st h;
  Store.Tiered.drop st hg;
  Store.Tiered.drop st hand;
  Alcotest.(check int) "all dropped" 0 (Store.Tiered.cold_nodes st);
  Store.Tiered.close st;
  Alcotest.(check int) "stats reset" 0 (List.assoc "cold_nodes" (Bdd.stats man))

let test_tiered_disk_full () =
  with_dir @@ fun dir ->
  let man = Bdd.create ~nvars () in
  let f = Bdd.conj man (List.init nvars (Bdd.ithvar man)) in
  let st = Store.Tiered.create ~dir ~disk_budget_bytes:8 man in
  (match Store.Tiered.demote st f with
  | exception Store.Tiered.Disk_full -> ()
  | _ -> Alcotest.fail "expected Disk_full");
  (* the partial file was removed and the store remains usable *)
  let st2 = Store.Tiered.create ~dir:(Filename.concat dir "sub") man in
  let h = Store.Tiered.demote st2 f in
  Alcotest.(check bool) "usable" true (Bdd.equal f (Store.Tiered.promote st2 h));
  Store.Tiered.close st2;
  Store.Tiered.close st

let test_tiered_constants () =
  with_dir @@ fun dir ->
  let man = Bdd.create ~nvars () in
  let st = Store.Tiered.create ~dir man in
  let hf = Store.Tiered.demote st (Bdd.ff man)
  and ht = Store.Tiered.demote st (Bdd.tt man) in
  Alcotest.(check (option int)) "ff const" (Some 0) (Store.Tiered.is_const st hf);
  Alcotest.(check (option int)) "tt const" (Some 1) (Store.Tiered.is_const st ht);
  Alcotest.(check (float 0.0)) "ff count" 0.0 (Store.Tiered.count_minterms st hf);
  Alcotest.(check (float 0.0))
    "tt count"
    (Float.of_int (1 lsl nvars))
    (Store.Tiered.count_minterms st ht);
  (* x AND NOT x collapses to ff entirely out of core *)
  let hx = Store.Tiered.demote st (Bdd.ithvar man 0) in
  let hz = Store.Tiered.apply st Store.Stream.Diff hx hx in
  Alcotest.(check (option int)) "diff self" (Some 0) (Store.Tiered.is_const st hz);
  Store.Tiered.close st

(* --- out-of-core reachability ------------------------------------------ *)

(* Ooc.run under a hot budget far below the in-RAM peak must migrate to
   the cold tier and still reach the exact fixpoint, with a reached set
   identical (as a BDD) to the unrestricted Bfs oracle. *)
let test_ooc_matches_bfs () =
  List.iter
    (fun c ->
      with_dir @@ fun dir ->
      let compiled = Compile.compile c in
      let trans = Trans.build compiled in
      let oracle = Bfs.run trans in
      let man2 = Bdd.create ~nvars:0 () in
      let trans2 = Trans.import man2 (Trans.export trans) in
      let baseline = Bdd.unique_size man2 in
      let budget = baseline + ((oracle.Traversal.peak_live_nodes - baseline) / 4) in
      let r = Ooc.run ~store_dir:dir ~hot_budget:budget trans2 in
      Alcotest.(check bool)
        (Circuit.name c ^ ": exact") true r.Ooc.exact;
      Alcotest.(check bool)
        (Circuit.name c ^ ": migrated") true (r.Ooc.migrations > 0);
      Alcotest.(check bool)
        (Circuit.name c ^ ": used cold tier") true
        (r.Ooc.peak_cold_nodes > 0 && r.Ooc.spilled_bytes > 0);
      let man = Trans.man trans in
      Alcotest.(check bool)
        (Circuit.name c ^ ": reached sets equal")
        true
        (Bdd.equal oracle.Traversal.reached (Bdd.import man r.Ooc.reached));
      Alcotest.(check (float 1e-6))
        (Circuit.name c ^ ": states")
        oracle.Traversal.states r.Ooc.states)
    [
      Generate.counter ~bits:5;
      Generate.johnson ~bits:5;
      Generate.fifo_controller ~depth:5;
      Generate.arbiter ~clients:4;
    ]

let test_ooc_roomy_budget_stays_hot () =
  with_dir @@ fun dir ->
  let compiled = Compile.compile (Generate.counter ~bits:4) in
  let trans = Trans.build compiled in
  let r = Ooc.run ~store_dir:dir ~hot_budget:1_000_000 trans in
  Alcotest.(check bool) "exact" true r.Ooc.exact;
  Alcotest.(check int) "no migration" 0 r.Ooc.migrations;
  Alcotest.(check (float 0.0)) "16 states" 16.0 r.Ooc.states

let tests =
  ( "store",
    [
      prop_pq_sorted;
      Alcotest.test_case "pq spill + drain" `Quick test_pq_spills;
      prop_level_file_round_trip;
      prop_level_file_canonical;
      prop_level_file_truncation;
      prop_level_file_bit_flip;
      prop_stream_apply_matches_kernel;
      prop_stream_apply_bounded_memory;
      prop_stream_count_minterms;
      Alcotest.test_case "tiered round trip" `Quick test_tiered_round_trip;
      Alcotest.test_case "tiered disk full" `Quick test_tiered_disk_full;
      Alcotest.test_case "tiered constants" `Quick test_tiered_constants;
      Alcotest.test_case "ooc reach == bfs oracle" `Quick test_ooc_matches_bfs;
      Alcotest.test_case "ooc roomy budget stays hot" `Quick
        test_ooc_roomy_budget_stays_hot;
    ] )
