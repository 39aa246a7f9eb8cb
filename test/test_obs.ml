(* The observability subsystem: metrics registry exactness under domains,
   obs-metrics/v1 snapshots, the span tracer's file format, the kernel
   event observer, and the instrumented Mt runner. *)

let test_jobs = 4

let with_recording f =
  Obs.Metrics.set_recording true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_recording false) f

let in_tmp name f =
  let path = Filename.temp_file "obs_test_" name in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- Json ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.(
      Obj
        [
          ("s", Str "a\"b\\c\nd");
          ("n", Num 1.5);
          ("i", num_int 42);
          ("b", Bool true);
          ("a", Arr [ Num 0.; Obj []; Arr [] ]);
        ])
  in
  Alcotest.(check bool)
    "parse (to_string j) = j" true
    (Obs.Json.parse (Obs.Json.to_string j) = j)

(* --- Metrics ------------------------------------------------------- *)

let test_counter_parallel_exact () =
  (* four domains hammer one counter; striped cells must not lose a single
     increment even when domain ids collide on a stripe *)
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "par.count" in
  let per_domain = 100_000 in
  let work () =
    for _ = 1 to per_domain do
      Obs.Metrics.inc c 1
    done
  in
  let spawned = Array.init 3 (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join spawned;
  Alcotest.(check int)
    "no lost increments" (4 * per_domain)
    (Obs.Metrics.counter_value c)

let test_metric_kinds () =
  let reg = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter reg "x");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Metrics: \"x\" is already a counter") (fun () ->
      ignore (Obs.Metrics.gauge reg "x"));
  (* same-kind re-registration returns the same cells *)
  Obs.Metrics.inc (Obs.Metrics.counter reg "x") 3;
  Alcotest.(check int) "shared handle" 3
    (Obs.Metrics.counter_value (Obs.Metrics.counter reg "x"))

let test_histogram_bins () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "h" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 4; 1000; 1023; 1024 ];
  Alcotest.(check int) "count" 8 (Obs.Metrics.histogram_count h);
  let j = Obs.Metrics.snapshot reg in
  (match Obs.Metrics.validate j with
  | Ok () -> ()
  | Error m -> Alcotest.failf "snapshot invalid: %s" m);
  (* the log-binned shape: 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 4 -> le 7;
     1000,1023 -> le 1023; 1024 -> le 2047 *)
  match Obs.Json.member "histograms" j with
  | Some (Obs.Json.Arr [ hj ]) ->
      let bins =
        match Obs.Json.member "bins" hj with
        | Some (Obs.Json.Arr bins) ->
            List.map
              (fun b ->
                let num k =
                  match Obs.Json.member k b with
                  | Some (Obs.Json.Num f) -> int_of_float f
                  | _ -> Alcotest.fail "bad bin"
                in
                (num "le", num "count"))
              bins
        | _ -> Alcotest.fail "no bins"
      in
      Alcotest.(check (list (pair int int)))
        "bins"
        [ (0, 1); (1, 1); (3, 2); (7, 1); (1023, 2); (2047, 1) ]
        bins
  | _ -> Alcotest.fail "no histograms array"

let test_snapshot_validate_rejects () =
  let bad = Obs.Json.(Obj [ ("schema", Str "bogus/v0") ]) in
  match Obs.Metrics.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bogus schema accepted"

let test_counters_monotone_across_snapshots () =
  (* run the instrumented runner twice with recording on: every counter in
     the default registry may only grow between the two snapshots *)
  with_recording (fun () ->
      let burst () =
        ignore
          (Mt.Runner.run ~jobs:test_jobs
             (List.init 6 (fun i ->
                  Mt.Runner.job ~label:(Printf.sprintf "m%d" i) (fun man ->
                      Bdd.size
                        (Bdd.conj man (List.init 40 (Bdd.ithvar man)))))))
      in
      burst ();
      let s0 = Obs.Metrics.snapshot Obs.Metrics.default in
      burst ();
      let s1 = Obs.Metrics.snapshot Obs.Metrics.default in
      (match Obs.Metrics.validate s0 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "snapshot 0 invalid: %s" m);
      (match Obs.Metrics.validate s1 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "snapshot 1 invalid: %s" m);
      let c0 = Obs.Metrics.counters_of_json s0
      and c1 = Obs.Metrics.counters_of_json s1 in
      Alcotest.(check bool) "some counters present" true (c0 <> []);
      List.iter
        (fun (name, v0) ->
          match List.assoc_opt name c1 with
          | Some v1 ->
              if v1 < v0 then
                Alcotest.failf "counter %s went backwards: %f -> %f" name v0
                  v1
          | None -> Alcotest.failf "counter %s disappeared" name)
        c0;
      (* the second burst really did count *)
      let find cs n = Option.value ~default:0. (List.assoc_opt n cs) in
      Alcotest.(check bool)
        "mt.jobs_done grew" true
        (find c1 "mt.jobs_done" >= find c0 "mt.jobs_done" +. 6.))

let test_disabled_is_noop () =
  (* recording off (the default): instrumented pipelines leave the
     registry untouched *)
  Alcotest.(check bool) "recording off" false (Obs.Metrics.recording ());
  let s0 = Obs.Metrics.snapshot Obs.Metrics.default in
  ignore
    (Mt.Runner.run ~jobs:2
       (List.init 4 (fun i ->
            Mt.Runner.job ~label:(Printf.sprintf "d%d" i) (fun man ->
                Bdd.size (Bdd.conj man (List.init 30 (Bdd.ithvar man)))))));
  let s1 = Obs.Metrics.snapshot Obs.Metrics.default in
  Alcotest.(check bool)
    "counters unchanged" true
    (Obs.Metrics.counters_of_json s0 = Obs.Metrics.counters_of_json s1);
  Alcotest.(check bool) "tracing off" false (Obs.Trace.enabled ());
  (* with_span must still run the thunk and propagate its value *)
  Alcotest.(check int) "with_span passthrough" 7
    (Obs.Trace.with_span "off" (fun () -> 7))

(* --- Timing -------------------------------------------------------- *)

let test_timing () =
  let v, elapsed = Obs.Timing.time (fun () -> 41 + 1) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "elapsed sane" true (elapsed >= 0. && elapsed < 60.);
  let (), _, gd = Obs.Timing.measure (fun () -> ignore (Array.make 1000 0)) in
  Alcotest.(check bool) "minor words counted" true (gd.Obs.Timing.minor_words >= 0.)

(* --- Kernel observer ----------------------------------------------- *)

let test_kernel_observer () =
  let reg = Obs.Metrics.create () in
  let man = Bdd.create () in
  Obs.Kernel.attach ~registry:reg ~prefix:"k" man;
  with_recording (fun () ->
      let value name = Obs.Metrics.counter_value (Obs.Metrics.counter reg name) in
      (* enough fresh nodes to force unique-table doublings *)
      ignore (Bdd.conj man (List.init 4000 (Bdd.ithvar man)));
      Alcotest.(check bool) "ut grew" true (value "k.ut_grows" > 0);
      let collected = Bdd.gc man ~roots:[] in
      Alcotest.(check bool) "gc collected" true (collected > 0);
      Alcotest.(check int) "gc runs" 1 (value "k.gc_runs");
      Alcotest.(check int) "gc collected nodes" collected
        (value "k.gc_collected_nodes");
      Bdd.set_node_limit man (Some 10);
      (try ignore (Bdd.conj man (List.init 40 (Bdd.ithvar man)))
       with Bdd.Node_limit -> ());
      Alcotest.(check int) "limit hits" 1 (value "k.node_limit_hits");
      Bdd.set_node_limit man None;
      Obs.Kernel.detach man;
      ignore (Bdd.gc man ~roots:[]);
      Alcotest.(check int) "detached: no more events" 1 (value "k.gc_runs"))

let test_kernel_stats_keys () =
  (* the new Bdd.stats keys exist and line up with the observer story *)
  let man = Bdd.create () in
  ignore (Bdd.conj man (List.init 2000 (Bdd.ithvar man)));
  ignore (Bdd.gc man ~roots:[]);
  let st = Bdd.stats man in
  let get k =
    match List.assoc_opt k st with
    | Some v -> v
    | None -> Alcotest.failf "stats key %s missing" k
  in
  Alcotest.(check bool) "ut_grows" true (get "ut_grows" > 0);
  Alcotest.(check int) "gc_runs" 1 (get "gc_runs");
  Alcotest.(check bool) "gc_collected" true (get "gc_collected" > 0);
  Alcotest.(check int) "node_limit_hits" 0 (get "node_limit_hits");
  Alcotest.(check bool) "cache_overwrites" true (get "cache_overwrites" >= 0)

(* --- Runner report ------------------------------------------------- *)

let test_report_carries_stats () =
  let r =
    List.hd
      (Mt.Runner.run ~jobs:1
         [
           Mt.Runner.job ~label:"stats" (fun man ->
               Bdd.size (Bdd.conj man (List.init 50 (Bdd.ithvar man))));
         ])
  in
  let rep = r.Mt.Runner.report in
  let get k = Option.value ~default:(-1) (List.assoc_opt k rep.Mt.Runner.stats) in
  Alcotest.(check int) "nodes_made" rep.Mt.Runner.nodes_made (get "nodes_made");
  Alcotest.(check int) "peak" rep.Mt.Runner.peak_nodes (get "peak_unique");
  Alcotest.(check int) "hits" rep.Mt.Runner.cache_hits (get "cache_hits");
  Alcotest.(check int) "misses" rep.Mt.Runner.cache_misses (get "cache_misses");
  Alcotest.(check bool) "full snapshot" true
    (List.mem_assoc "unique_capacity" rep.Mt.Runner.stats)

(* --- Trace --------------------------------------------------------- *)

let test_trace_runner_roundtrip () =
  List.iter
    (fun d ->
      in_tmp "trace.json" (fun path ->
          Obs.Trace.start ~out:path ();
          ignore
            (Mt.Runner.run ~jobs:d
               (List.init (max 8 d) (fun i ->
                    Mt.Runner.job ~label:(Printf.sprintf "t%d" i) (fun man ->
                        Bdd.size
                          (Bdd.conj man (List.init 60 (Bdd.ithvar man)))))));
          (* a span that raises must still balance *)
          (try Obs.Trace.with_span "raiser" (fun () -> failwith "boom")
           with Failure _ -> ());
          Obs.Trace.stop ();
          Alcotest.(check bool) "tracing off after stop" false
            (Obs.Trace.enabled ());
          let j = Obs.Json.read_file path in
          match Obs.Trace.validate j with
          | Error m -> Alcotest.failf "invalid trace @ %d workers: %s" d m
          | Ok (events, tracks) ->
              Alcotest.(check bool) "events recorded" true (events > 0);
              (* the calling domain plus d - 1 pool helpers, each with an
                 mt.worker span, i.e. one lane per worker domain *)
              Alcotest.(check bool)
                (Printf.sprintf "at least %d tracks (got %d)" d tracks)
                true (tracks >= d);
              (* the lanes come by construction, not by luck of the
                 steal: one mt.worker span on each of the d - 1 helpers
                 and none on the caller, whose lane holds mt.run *)
              let tids name_ok =
                match Obs.Json.member "traceEvents" j with
                | Some (Obs.Json.Arr evs) ->
                    List.sort_uniq compare
                      (List.filter_map
                         (fun ev ->
                           match
                             ( Obs.Json.member "ph" ev,
                               Obs.Json.member "name" ev,
                               Obs.Json.member "tid" ev )
                           with
                           | ( Some (Obs.Json.Str "B"),
                               Some (Obs.Json.Str name),
                               Some (Obs.Json.Num tid) )
                             when name_ok name ->
                               Some tid
                           | _ -> None)
                         evs)
                | _ -> []
              in
              let workers =
                tids (String.starts_with ~prefix:"mt.worker ")
              and caller = tids (String.equal "mt.run") in
              Alcotest.(check int)
                (Printf.sprintf "mt.worker lanes @ %d workers" d)
                (d - 1) (List.length workers);
              Alcotest.(check bool) "no mt.worker span on the caller" true
                (List.for_all (fun t -> not (List.mem t caller)) workers)))
    Test_par.parallel_counts

let test_trace_validate_rejects () =
  let ev kvs = Obs.Json.Obj kvs in
  let bad_unbalanced =
    Obs.Json.Arr
      [
        ev
          [
            ("ph", Obs.Json.Str "E");
            ("tid", Obs.Json.num_int 1);
            ("ts", Obs.Json.Num 0.);
          ];
      ]
  in
  (match Obs.Trace.validate bad_unbalanced with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "end-without-begin accepted");
  let bad_backwards =
    Obs.Json.Arr
      [
        ev
          [
            ("name", Obs.Json.Str "a");
            ("ph", Obs.Json.Str "i");
            ("tid", Obs.Json.num_int 1);
            ("ts", Obs.Json.Num 10.);
          ];
        ev
          [
            ("name", Obs.Json.Str "b");
            ("ph", Obs.Json.Str "i");
            ("tid", Obs.Json.num_int 1);
            ("ts", Obs.Json.Num 5.);
          ];
      ]
  in
  match Obs.Trace.validate bad_backwards with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backwards timestamps accepted"

let tests =
  ( "obs",
    [
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "counter parallel exact" `Quick
        test_counter_parallel_exact;
      Alcotest.test_case "metric kinds" `Quick test_metric_kinds;
      Alcotest.test_case "histogram bins" `Quick test_histogram_bins;
      Alcotest.test_case "snapshot validate rejects" `Quick
        test_snapshot_validate_rejects;
      Alcotest.test_case "counters monotone across snapshots" `Quick
        test_counters_monotone_across_snapshots;
      Alcotest.test_case "disabled is noop" `Quick test_disabled_is_noop;
      Alcotest.test_case "timing" `Quick test_timing;
      Alcotest.test_case "kernel observer" `Quick test_kernel_observer;
      Alcotest.test_case "kernel stats keys" `Quick test_kernel_stats_keys;
      Alcotest.test_case "report carries stats" `Quick
        test_report_carries_stats;
      Alcotest.test_case "trace runner roundtrip" `Quick
        test_trace_runner_roundtrip;
      Alcotest.test_case "trace validate rejects" `Quick
        test_trace_validate_rejects;
    ] )
