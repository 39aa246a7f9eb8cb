(* The Mt subsystem: work-stealing runner semantics (ordering, budgets,
   crash isolation), cross-manager transfer of whole transition relations,
   and determinism of the parallel harness tables.

   The runner's worker counts are the PAR_TEST_DOMAINS counts above one
   ([Test_par.parallel_counts]), so the CI matrix re-runs this suite at 2
   and 8 domains. *)

let test_result_order () =
  (* many quick jobs, results must come back in submission order no matter
     how the deques interleave *)
  let jobs =
    List.init 32 (fun i ->
        Mt.Runner.job ~label:(string_of_int i) (fun man ->
            ignore (Bdd.ithvar man (i mod 7));
            i))
  in
  List.iter
    (fun d ->
      let results = Mt.Runner.run ~jobs:d jobs in
      Alcotest.(check (list int))
        (Printf.sprintf "submission order @ %d workers" d)
        (List.init 32 Fun.id)
        (List.map
           (fun r -> match Mt.Runner.value r with Some i -> i | None -> -1)
           results))
    Test_par.parallel_counts

let test_over_budget_isolated () =
  (* the middle job blows a tiny node budget; its siblings must finish
     untouched because every job owns a private manager *)
  let hog =
    Mt.Runner.job
      ~budget:{ Resil.Degrade.no_budget with node_budget = Some 50 }
      ~label:"hog"
      (fun man -> Bdd.size (Bdd.conj man (List.init 200 (Bdd.ithvar man))))
  in
  let ok i =
    Mt.Runner.job ~label:(Printf.sprintf "ok%d" i) (fun man ->
        Bdd.size (Bdd.conj man (List.init 20 (Bdd.ithvar man))))
  in
  List.iter
    (fun d ->
      match
        List.map
          (fun (r : _ Mt.Runner.result) -> r.Mt.Runner.outcome)
          (Mt.Runner.run ~jobs:d [ ok 0; hog; ok 1; ok 2 ])
      with
      | [ Done 20; Over_budget; Done 20; Done 20 ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes @ %d workers: %s" d
            (String.concat "; "
               (List.map
                  (Format.asprintf "%a" Mt.Runner.pp_outcome)
                  outcomes)))
    Test_par.parallel_counts

let test_deadline () =
  (* a job that makes fresh nodes forever: the tick hook must convert the
     deadline into Timeout while a sibling completes *)
  let endless =
    Mt.Runner.job
      ~budget:{ Resil.Degrade.no_budget with deadline = Some 0.05 }
      ~label:"endless"
      (fun man ->
        let f = ref (Bdd.tt man) in
        let i = ref 0 in
        while true do
          f := Bdd.bxor man !f (Bdd.ithvar man !i);
          incr i
        done;
        Bdd.size !f)
  in
  let ok = Mt.Runner.job ~label:"ok" (fun man -> Bdd.size (Bdd.ithvar man 0)) in
  match
    List.map
      (fun (r : _ Mt.Runner.result) -> r.Mt.Runner.outcome)
      (Mt.Runner.run ~jobs:2 [ endless; ok ])
  with
  | [ Timeout; Done 1 ] -> ()
  | outcomes ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; "
           (List.map
              (Format.asprintf "%a" Mt.Runner.pp_outcome)
              outcomes))

let test_crash_isolated () =
  List.iter
    (fun d ->
      let results =
        Mt.Runner.run ~jobs:d
          [
            Mt.Runner.job ~label:"boom" (fun _ -> failwith "boom");
            Mt.Runner.job ~label:"fine" (fun man ->
                Bdd.size (Bdd.ithvar man 2));
          ]
      in
      match
        List.map (fun (r : _ Mt.Runner.result) -> r.Mt.Runner.outcome) results
      with
      | [ Crashed { exn; _ }; Done 1 ] ->
          Alcotest.(check bool)
            (Printf.sprintf "message mentions the exception @ %d workers" d)
            true
            (String.length exn > 0)
      | _ -> Alcotest.failf "expected [Crashed _; Done 1] @ %d workers" d)
    Test_par.parallel_counts

let test_report_counters () =
  match
    Mt.Runner.run ~jobs:1
      [
        Mt.Runner.job ~label:"count" (fun man ->
            let f = Bdd.conj man (List.init 10 (Bdd.ithvar man)) in
            (* recompute to force cache hits *)
            ignore (Bdd.band man f f);
            Bdd.size f);
      ]
  with
  | [ { Mt.Runner.outcome = Done 10; report } ] ->
      Alcotest.(check string) "label" "count" report.Mt.Runner.label;
      Alcotest.(check bool) "wall >= 0" true (report.Mt.Runner.wall >= 0.);
      Alcotest.(check bool)
        "peak covers the conjunction" true
        (report.Mt.Runner.peak_nodes >= 10);
      Alcotest.(check bool)
        "nodes were made" true
        (report.Mt.Runner.nodes_made >= 10);
      Alcotest.(check bool)
        "cache was exercised" true
        (report.Mt.Runner.cache_hits + report.Mt.Runner.cache_misses > 0)
  | _ -> Alcotest.fail "unexpected result"

(* --- determinism of the parallel tables ------------------------------- *)

let small_pool () =
  let pool =
    Pool.entries_of_circuit ~min_nodes:150
      (Generate.random_netlist ~inputs:14 ~gates:60 ~outputs:4 ~seed:7)
  in
  Alcotest.(check bool) "pool is non-empty" false (pool = []);
  pool

let methods : (string * (Bdd.man -> Bdd.t -> Bdd.t)) list =
  [ ("F", fun _ f -> f); ("RUA", fun man f -> Remap.approximate man f) ]

let render_approx pool jobs =
  Tables.render ~headers:Scoreboard.approx_headers
    ~rows:(Scoreboard.approx_rows (Scoreboard.approx_table ~jobs pool methods))

let test_table_determinism () =
  let pool = small_pool () in
  let sequential =
    Tables.render ~headers:Scoreboard.approx_headers
      ~rows:(Scoreboard.approx_rows (Scoreboard.approx_table pool methods))
  in
  Alcotest.(check string)
    "jobs:1 matches sequential" sequential (render_approx pool 1);
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "jobs:%d matches sequential" d)
        sequential (render_approx pool d))
    Test_par.parallel_counts

let test_pool_determinism () =
  let label (e : Pool.entry) = (e.Pool.label, Bdd.size e.Pool.f) in
  let circuits =
    [
      Generate.microsequencer ~addr_bits:3 ~stack_depth:2;
      Generate.shifter_datapath ~width:6;
    ]
  in
  Alcotest.(check (list (pair string int)))
    "same entries for jobs:1 and jobs:3"
    (List.map label (Pool.build ~min_nodes:100 ~circuits ~jobs:1 ()))
    (List.map label (Pool.build ~min_nodes:100 ~circuits ~jobs:3 ()))

(* --- cross-manager transfer of a transition relation ------------------ *)

let test_trans_transfer () =
  let trans =
    Trans.build (Compile.compile (Generate.microsequencer ~addr_bits:3 ~stack_depth:2))
  in
  let reference = Bfs.run trans in
  let x = Trans.export trans in
  let results =
    Mt.Runner.run ~jobs:2
      (List.init 2 (fun i ->
           Mt.Runner.job ~label:(Printf.sprintf "bfs%d" i) (fun man ->
               let r = Bfs.run (Trans.import man x) in
               (r.Traversal.exact, r.Traversal.states, r.Traversal.iterations))))
  in
  List.iter
    (fun r ->
      match Mt.Runner.value r with
      | Some (exact, states, iters) ->
          Alcotest.(check bool) "exact" reference.Traversal.exact exact;
          Alcotest.(check (float 0.0)) "states" reference.Traversal.states states;
          Alcotest.(check int) "iterations" reference.Traversal.iterations iters
      | None -> Alcotest.fail "transfer job failed")
    results

let test_copy_preserves_sharing () =
  let src = Bdd.create ~nvars:10 () in
  let f = Bdd.conj src (List.init 8 (Bdd.ithvar src)) in
  let g = Bdd.bor src f (Bdd.nithvar src 9) in
  let dst = Bdd.create () in
  match Bdd.import_list dst (Bdd.export_list src [ f; g ]) with
  | [ f'; g' ] ->
      Alcotest.(check int)
        "shared size preserved"
        (Bdd.shared_size [ f; g ])
        (Bdd.shared_size [ f'; g' ]);
      Alcotest.(check bool)
        "copy agrees with copy_list" true
        (Bdd.equal f' (Bdd.import dst (Bdd.export src f)))
  | _ -> Alcotest.fail "copy_list arity"

(* --- a runner job that opens its own pool ---------------------------- *)

(* A runner job is a Tpool task; one that runs a pool-driven traversal
   creates, forks on and shuts down a second Tpool from inside it.  The
   reached set must be the sequential engine's, bit for bit. *)
let test_nested_pools () =
  let useq () = Generate.microsequencer ~addr_bits:3 ~stack_depth:2 in
  let export man f = Bdd.serialized_to_string (Bdd.export man f) in
  let want =
    let trans = Trans.build (Compile.compile (useq ())) in
    export (Trans.man trans) (Bfs.run trans).Traversal.reached
  in
  List.iter
    (fun d ->
      let results =
        Mt.Runner.run ~jobs:d
          (List.init d (fun i ->
               Mt.Runner.job ~label:(Printf.sprintf "nested%d" i) (fun _ ->
                   let man = Bdd.create ~shared:true () in
                   let trans = Trans.build (Compile.compile ~man (useq ())) in
                   Mt.Par.with_pool ~jobs:2 (fun p ->
                       let r = Bfs.run ~pool:(Mt.Par.pool p) trans in
                       export man r.Traversal.reached))))
      in
      List.iter
        (fun (r : _ Mt.Runner.result) ->
          match r.Mt.Runner.outcome with
          | Done got ->
              Alcotest.(check string)
                (Printf.sprintf "%s reached set @ %d workers"
                   r.Mt.Runner.report.Mt.Runner.label d)
                want got
          | o ->
              Alcotest.failf "%s @ %d workers: %a"
                r.Mt.Runner.report.Mt.Runner.label d Mt.Runner.pp_outcome o)
        results)
    Test_par.domain_counts

let tests =
  ( "mt",
    [
      Alcotest.test_case "result order" `Quick test_result_order;
      Alcotest.test_case "over-budget job isolated" `Quick
        test_over_budget_isolated;
      Alcotest.test_case "deadline -> Timeout" `Quick test_deadline;
      Alcotest.test_case "crash isolated" `Quick test_crash_isolated;
      Alcotest.test_case "report counters" `Quick test_report_counters;
      Alcotest.test_case "table determinism across jobs" `Quick
        test_table_determinism;
      Alcotest.test_case "pool determinism across jobs" `Quick
        test_pool_determinism;
      Alcotest.test_case "transition-relation transfer" `Quick
        test_trans_transfer;
      Alcotest.test_case "copy_list preserves sharing" `Quick
        test_copy_preserves_sharing;
      Alcotest.test_case "runner job opens its own pool" `Quick
        test_nested_pools;
    ] )
