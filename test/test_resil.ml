(* Resilience layer: checksummed crash-safe checkpoints (corruption can
   only ever surface as Bdd.Corrupt, never as a wrong BDD or a crash),
   the degradation ladder, fault-injection config, and supervised runner
   retries. *)

let qtest ?(count = 200) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

let nvars = 6

let check_corrupt name fn =
  match fn () with
  | exception Bdd.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Bdd.Corrupt, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Bdd.Corrupt, accepted the input" name

let with_tmp f =
  let path = Filename.temp_file "resil" ".bdd" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- checkpoint format ------------------------------------------------ *)

let test_crc32 () =
  (* the standard test vector of the IEEE 802.3 polynomial *)
  Alcotest.(check int)
    "crc32(123456789)" 0xCBF43926
    (Resil.Checkpoint.crc32 "123456789")

let test_checkpoint_round_trip () =
  with_tmp @@ fun path ->
  let man = Bdd.create ~nvars:8 () in
  let f =
    Bdd.bxor man
      (Bdd.conj man (List.init 4 (Bdd.ithvar man)))
      (Bdd.disj man (List.init 8 (Bdd.ithvar man)))
  in
  Resil.Checkpoint.save path (Bdd.export man f);
  let g = Bdd.import man (Resil.Checkpoint.load path) in
  Alcotest.(check bool) "round trip" true (Bdd.equal f g);
  (* legacy trailer-less files written by Bdd.save still load *)
  Bdd.save path (Bdd.export man f);
  let g = Bdd.import man (Resil.Checkpoint.load path) in
  Alcotest.(check bool) "legacy round trip" true (Bdd.equal f g)

let test_atomic_overwrite () =
  with_tmp @@ fun path ->
  let man = Bdd.create ~nvars:4 () in
  let f = Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 3) in
  Resil.Checkpoint.save path (Bdd.export man f);
  let g = Bdd.bor man f (Bdd.ithvar man 1) in
  Resil.Checkpoint.save path (Bdd.export man g);
  Alcotest.(check bool)
    "overwrite wins" true
    (Bdd.equal g (Bdd.import man (Resil.Checkpoint.load path)));
  (* no temp litter left beside the target *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let stray =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun n ->
           n <> base
           && String.length n > String.length base
           && String.sub n 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no stray temp files" [] stray

let test_reach_state_round_trip () =
  with_tmp @@ fun path ->
  let man = Bdd.create ~nvars:6 () in
  let reached = Bdd.disj man (List.init 5 (Bdd.ithvar man)) in
  let frontier = Bdd.band man reached (Bdd.nithvar man 5) in
  Resil.Checkpoint.save_reach path
    {
      Resil.Checkpoint.iterations = 42;
      images = 43;
      payload = Bdd.export_list man [ reached; frontier ];
    };
  let st = Resil.Checkpoint.load_reach path in
  Alcotest.(check int) "iterations" 42 st.Resil.Checkpoint.iterations;
  Alcotest.(check int) "images" 43 st.Resil.Checkpoint.images;
  (match Bdd.import_list man st.Resil.Checkpoint.payload with
  | [ r; f ] ->
      Alcotest.(check bool) "reached" true (Bdd.equal r reached);
      Alcotest.(check bool) "frontier" true (Bdd.equal f frontier)
  | _ -> Alcotest.fail "roots arity");
  (* the two checkpoint kinds reject each other with a clear message *)
  check_corrupt "load of a reach checkpoint" (fun () ->
      Resil.Checkpoint.load path);
  Resil.Checkpoint.save path (Bdd.export man reached);
  check_corrupt "load_reach of a plain checkpoint" (fun () ->
      Resil.Checkpoint.load_reach path)

(* Truncating a checkpoint anywhere must either raise Corrupt or (at the
   single cut that removes exactly the whole trailer, leaving a valid
   legacy file) still decode the identical BDD — never a different one. *)
let prop_truncation_detected =
  qtest ~count:100 "checkpoint truncation -> Corrupt or identical"
    QCheck.(pair (Tgen.arbitrary_expr ~nvars ~depth:6) (float_range 0. 1.))
    (fun (e, frac) ->
      let man, f, _ = Tgen.setup ~nvars e in
      with_tmp @@ fun path ->
      Resil.Checkpoint.save path (Bdd.export man f);
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let n = String.length data in
      let cut = min (n - 1) (int_of_float (frac *. float_of_int n)) in
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 cut);
      close_out oc;
      match Resil.Checkpoint.load path with
      | exception Bdd.Corrupt _ -> true
      | s -> cut = n - 16 && Bdd.equal f (Bdd.import man s))

(* Every single-bit flip anywhere in a checkpoint file must raise Corrupt
   — the "never a wrong BDD" guarantee the raw format cannot give. *)
let prop_bit_flip_detected =
  qtest ~count:200 "checkpoint bit flip -> Corrupt"
    QCheck.(pair (Tgen.arbitrary_expr ~nvars ~depth:6) (pair small_nat small_nat))
    (fun (e, (byte_seed, bit)) ->
      let man, f, _ = Tgen.setup ~nvars e in
      with_tmp @@ fun path ->
      Resil.Checkpoint.save path (Bdd.export man f);
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let pos = byte_seed mod String.length data in
      let flipped = Bytes.of_string data in
      Bytes.set flipped pos
        (Char.chr (Char.code data.[pos] lxor (1 lsl (bit mod 8))));
      let oc = open_out_bin path in
      output_bytes oc flipped;
      close_out oc;
      match Resil.Checkpoint.load path with
      | exception Bdd.Corrupt _ -> true
      | _ -> false)

(* The raw in-memory encoding has no checksum, so a mutation may parse —
   but it must never escape as anything other than Corrupt or a
   well-formed serialized record that import accepts. *)
let prop_raw_mutation_never_crashes =
  qtest ~count:500 "raw BDD1 mutation -> Corrupt or well-formed"
    QCheck.(
      pair (Tgen.arbitrary_expr ~nvars ~depth:6) (pair small_nat small_nat))
    (fun (e, (byte_seed, bit)) ->
      let man, f, _ = Tgen.setup ~nvars e in
      let good = Bdd.serialized_to_string (Bdd.export man f) in
      let pos = byte_seed mod String.length good in
      let bad = Bytes.of_string good in
      Bytes.set bad pos
        (Char.chr (Char.code good.[pos] lxor (1 lsl (bit mod 8))));
      match Bdd.serialized_of_string (Bytes.to_string bad) with
      | exception Bdd.Corrupt _ -> true
      | s -> (
          (* a parse that survives must also import cleanly or be caught *)
          let man2 = Bdd.create () in
          match Bdd.import_list man2 s with
          | exception Bdd.Corrupt _ -> true
          | _ -> true))

let test_order_not_permutation () =
  let man = Bdd.create () in
  check_corrupt "duplicate order entry" (fun () ->
      Bdd.import man
        {
          Bdd.s_nvars = 2;
          s_order = [| 0; 0 |];
          s_nodes = [| (0, 1, 0) |];
          s_roots = [| 2 |];
        });
  check_corrupt "order entry out of range" (fun () ->
      Bdd.import man
        {
          Bdd.s_nvars = 2;
          s_order = [| 0; 5 |];
          s_nodes = [| (0, 1, 0) |];
          s_roots = [| 2 |];
        })

(* --- degradation ladder ----------------------------------------------- *)

let test_degrade_ladder () =
  let man = Bdd.create ~nvars:8 () in
  let frontier = Bdd.disj man (List.init 8 (Bdd.ithvar man)) in
  let reached = Bdd.ff man in
  let deg = Resil.Degrade.create () in
  let budget = Bdd.size frontier - 1 in
  (* a compute that "blows the budget" on anything bigger than [budget]
     nodes stands in for the kernel's Node_limit *)
  let compute g = if Bdd.size g > budget then raise Bdd.Node_limit else g in
  let v, expanded, leftover =
    Resil.Degrade.image deg man ~roots:(fun () -> [ frontier ]) ~reached
      ~compute frontier
  in
  Alcotest.(check bool) "value is the expanded set" true (Bdd.equal v expanded);
  Alcotest.(check bool)
    "expanded under budget" true
    (Bdd.size expanded <= budget);
  Alcotest.(check bool)
    "expanded subset of frontier" true
    (Bdd.leq man expanded frontier);
  Alcotest.(check bool)
    "leftover = frontier minus expanded" true
    (Bdd.equal leftover (Bdd.bdiff man frontier expanded));
  Alcotest.(check bool) "not empty" false (Bdd.is_false expanded);
  Alcotest.(check int) "one degraded step" 1
    (Resil.Degrade.steps_approximated deg);
  (match Resil.Degrade.certificate ~exact:false deg with
  | Resil.Degrade.Degraded { steps_approximated = 1; exhausted = false; _ } ->
      ()
  | c -> Alcotest.failf "unexpected certificate %a" Resil.Degrade.pp_cert c);
  Alcotest.(check bool)
    "exact run certifies Exact" true
    (Resil.Degrade.certificate ~exact:true deg = Resil.Degrade.Exact)

let test_degrade_exhausted () =
  let man = Bdd.create ~nvars:4 () in
  let frontier = Bdd.disj man (List.init 4 (Bdd.ithvar man)) in
  let deg = Resil.Degrade.create () in
  (* nothing fits: even the single-cube rung must fail *)
  let compute _ = raise Bdd.Node_limit in
  (match
     Resil.Degrade.image deg man ~roots:(fun () -> [ frontier ])
       ~reached:(Bdd.ff man) ~compute frontier
   with
  | exception Resil.Degrade.Exhausted -> ()
  | _ -> Alcotest.fail "expected Exhausted");
  match Resil.Degrade.certificate ~exact:false deg with
  | Resil.Degrade.Degraded { exhausted = true; _ } -> ()
  | c -> Alcotest.failf "unexpected certificate %a" Resil.Degrade.pp_cert c

(* --- fault configuration ---------------------------------------------- *)

let test_fault_config () =
  (match Resil.Fault.config_of_string "seed=42,node_limit=0.5,job_crash=1" with
  | Ok c ->
      Alcotest.(check int) "seed" 42 c.Resil.Fault.seed;
      Alcotest.(check (float 0.)) "node_limit" 0.5 c.Resil.Fault.p_node_limit;
      Alcotest.(check (float 0.)) "cache_wipe" 0. c.Resil.Fault.p_cache_wipe;
      Alcotest.(check (float 0.)) "job_crash" 1. c.Resil.Fault.p_job_crash;
      (* round-trips through the printer *)
      Alcotest.(check bool)
        "config round trip" true
        (Resil.Fault.config_of_string (Resil.Fault.config_to_string c) = Ok c)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Resil.Fault.config_of_string "seed=xyz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage seed accepted");
  match Resil.Fault.config_of_string "p_typo=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted"

let test_fault_deterministic () =
  let config =
    { Resil.Fault.disabled with seed = 7; p_node_limit = 0.5; p_cache_wipe = 0.3 }
  in
  let observe () =
    let man = Bdd.create ~nvars:10 () in
    Resil.Fault.attach ~config man;
    let log = ref [] in
    (* the same workload against the same seed must inject identically *)
    (try
       for i = 0 to 9 do
         match Bdd.conj man (List.init 10 (Bdd.ithvar man)) with
         | _ -> log := `Ok i :: !log
         | exception Bdd.Node_limit ->
             log := `Limit i :: !log;
             Bdd.clear_caches man
       done
     with Resil.Fault.Injected_abort -> log := `Abort :: !log);
    !log
  in
  Alcotest.(check bool) "same seed, same faults" true (observe () = observe ())

(* --- supervised retries ----------------------------------------------- *)

let fast_retry attempts =
  {
    Mt.Runner.max_attempts = attempts;
    backoff = 0.001;
    backoff_max = 0.002;
    jitter = 0.5;
  }

let test_retry_flaky_job () =
  let tries = Atomic.make 0 in
  let results =
    Mt.Runner.run ~jobs:1 ~retry:(fast_retry 3)
      [
        Mt.Runner.job ~label:"flaky" (fun man ->
            if Atomic.fetch_and_add tries 1 < 2 then failwith "flaky";
            Bdd.size (Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 1)));
      ]
  in
  match results with
  | [ { outcome = Done 2; report } ] ->
      Alcotest.(check int) "three attempts" 3 report.Mt.Runner.attempts;
      Alcotest.(check int) "work ran three times" 3 (Atomic.get tries)
  | [ { outcome; _ } ] ->
      Alcotest.failf "expected Done after retries, got %a" Mt.Runner.pp_outcome
        outcome
  | _ -> Alcotest.fail "arity"

let test_retry_quarantine () =
  let results =
    Mt.Runner.run ~jobs:1 ~retry:(fast_retry 3)
      [ Mt.Runner.job ~label:"poison" (fun _ -> failwith "always") ]
  in
  match results with
  | [ { outcome = Quarantined { attempts = 3; last = Crashed { exn; _ } }; _ } ]
    ->
      Alcotest.(check bool)
        "exception name preserved" true
        (String.length exn > 0
        && String.length exn >= 6
        && (let found = ref false in
            for i = 0 to String.length exn - 6 do
              if String.sub exn i 6 = "always" then found := true
            done;
            !found))
  | [ { outcome; _ } ] ->
      Alcotest.failf "expected quarantine, got %a" Mt.Runner.pp_outcome outcome
  | _ -> Alcotest.fail "arity"

let test_retry_over_budget () =
  let results =
    Mt.Runner.run ~jobs:1 ~retry:(fast_retry 2)
      [
        Mt.Runner.job
          ~budget:{ Resil.Degrade.no_budget with node_budget = Some 10 }
          ~label:"hog"
          (fun man -> Bdd.size (Bdd.conj man (List.init 24 (Bdd.ithvar man))));
      ]
  in
  match results with
  | [ { outcome = Quarantined { attempts = 2; last = Over_budget }; _ } ] -> ()
  | [ { outcome; _ } ] ->
      Alcotest.failf "expected quarantined over-budget, got %a"
        Mt.Runner.pp_outcome outcome
  | _ -> Alcotest.fail "arity"

let test_no_retry_unchanged () =
  (* without a policy the historic single-attempt behaviour holds *)
  let results =
    Mt.Runner.run ~jobs:1
      [ Mt.Runner.job ~label:"boom" (fun _ -> failwith "boom") ]
  in
  match results with
  | [ { outcome = Crashed _; report } ] ->
      Alcotest.(check int) "one attempt" 1 report.Mt.Runner.attempts
  | _ -> Alcotest.fail "expected a plain crash"

let test_runner_fault_dispatch () =
  let config = { Resil.Fault.disabled with seed = 3; p_job_crash = 1.0 } in
  Resil.Fault.arm (Some config);
  Fun.protect ~finally:(fun () -> Resil.Fault.arm None) @@ fun () ->
  let results =
    Mt.Runner.run ~jobs:1 ~retry:(fast_retry 2)
      [ Mt.Runner.job ~label:"doomed" (fun man -> Bdd.size (Bdd.tt man)) ]
  in
  match results with
  | [ { outcome = Quarantined { last = Crashed { exn; _ }; _ }; _ } ] ->
      Alcotest.(check bool)
        "injected abort named" true
        (String.length exn > 0)
  | [ { outcome; _ } ] ->
      Alcotest.failf "expected injected quarantine, got %a"
        Mt.Runner.pp_outcome outcome
  | _ -> Alcotest.fail "arity"

let tests =
  ( "resil",
    [
      Alcotest.test_case "crc32 vector" `Quick test_crc32;
      Alcotest.test_case "checkpoint round trip" `Quick
        test_checkpoint_round_trip;
      Alcotest.test_case "atomic overwrite" `Quick test_atomic_overwrite;
      Alcotest.test_case "reach state round trip" `Quick
        test_reach_state_round_trip;
      prop_truncation_detected;
      prop_bit_flip_detected;
      prop_raw_mutation_never_crashes;
      Alcotest.test_case "order not a permutation" `Quick
        test_order_not_permutation;
      Alcotest.test_case "degrade ladder" `Quick test_degrade_ladder;
      Alcotest.test_case "degrade exhausted" `Quick test_degrade_exhausted;
      Alcotest.test_case "fault config" `Quick test_fault_config;
      Alcotest.test_case "fault determinism" `Quick test_fault_deterministic;
      Alcotest.test_case "retry flaky job" `Quick test_retry_flaky_job;
      Alcotest.test_case "retry quarantine" `Quick test_retry_quarantine;
      Alcotest.test_case "retry over budget" `Quick test_retry_over_budget;
      Alcotest.test_case "no retry unchanged" `Quick test_no_retry_unchanged;
      Alcotest.test_case "runner fault dispatch" `Quick
        test_runner_fault_dispatch;
    ] )
