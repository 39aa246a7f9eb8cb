(* Tests for the parallel kernel: the shared (striped) unique table, the
   per-domain computed-table sets, and the connectives' ?pool fork/join
   recursions.

   The domain counts exercised by the pool-based properties come from
   PAR_TEST_DOMAINS (space- or comma-separated, default "1 2 4") so the
   CI matrix can re-run the same suite at 2 and 8 domains. *)

let domain_counts =
  let parse s =
    String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) s)
    |> List.filter_map int_of_string_opt
    |> List.filter (fun d -> d >= 1)
  in
  match Option.map parse (Sys.getenv_opt "PAR_TEST_DOMAINS") with
  | Some (_ :: _ as ds) -> ds
  | Some [] | None -> [ 1; 2; 4 ]

(* The counts above one, for the Mt runner's suites, which test their
   one-worker case on its own; 2 if PAR_TEST_DOMAINS names none. *)
let parallel_counts =
  match List.filter (fun d -> d >= 2) domain_counts with
  | [] -> [ 2 ]
  | ds -> ds

let nvars = 6

let qtest ?(count = 100) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

(* canonical fingerprint: equal across managers iff the BDDs are equal *)
let export man f = Bdd.serialized_to_string (Bdd.export man f)

let with_pool workers fn =
  let pool = Tpool.create ~workers in
  Fun.protect ~finally:(fun () -> Tpool.shutdown pool) (fun () -> fn pool)

(* Tgen.build_bdd routed through the ?pool entry points, so a random op
   tree forks band/bor/bxor/ite at every internal node, and bdiff at every
   conjunction with a negated operand. *)
let rec build_par pool man = function
  | Tgen.T -> Bdd.tt man
  | Tgen.F -> Bdd.ff man
  | Tgen.V i -> Bdd.ithvar man i
  | Tgen.Not e -> Bdd.bnot man (build_par pool man e)
  | Tgen.And (a, Tgen.Not b) ->
      Bdd.bdiff ~pool man (build_par pool man a) (build_par pool man b)
  | Tgen.And (a, b) ->
      Bdd.band ~pool man (build_par pool man a) (build_par pool man b)
  | Tgen.Or (a, b) ->
      Bdd.bor ~pool man (build_par pool man a) (build_par pool man b)
  | Tgen.Xor (a, b) ->
      Bdd.bxor ~pool man (build_par pool man a) (build_par pool man b)
  | Tgen.Imp (a, b) ->
      Bdd.ite ~pool man (build_par pool man a) (build_par pool man b)
        (Bdd.tt man)
  | Tgen.Ite (a, b, c) ->
      Bdd.ite ~pool man (build_par pool man a) (build_par pool man b)
        (build_par pool man c)

(* --- par ops vs the single-domain oracle ------------------------------ *)

let prop_par_matches_oracle e =
  (* sequential oracle on a private manager *)
  let man0, f0, o = Tgen.setup ~nvars e in
  let want = export man0 f0 in
  List.for_all
    (fun d ->
      with_pool d (fun pool ->
          let man = Bdd.create ~nvars ~shared:(d > 1) () in
          let f = build_par pool man e in
          export man f = want
          && Oracle.equal (Oracle.of_bdd man nvars f) o))
    domain_counts

let prop_par_exist_and e1 e2 =
  let man0 = Bdd.create ~nvars () in
  let a0 = Tgen.build_bdd man0 e1 and b0 = Tgen.build_bdd man0 e2 in
  let vars0 = Bdd.cube man0 [ 0; 2; 4 ] in
  let want = export man0 (Bdd.and_exists man0 ~vars:vars0 a0 b0) in
  List.for_all
    (fun d ->
      with_pool d (fun pool ->
          let man = Bdd.create ~nvars ~shared:(d > 1) () in
          let a = Tgen.build_bdd man e1 and b = Tgen.build_bdd man e2 in
          let vars = Bdd.cube man [ 0; 2; 4 ] in
          export man (Bdd.and_exists ~pool man ~vars a b) = want))
    domain_counts

(* --- pool-driven reachability vs the sequential engine ---------------- *)

(* Bfs and High_density with reach-par's two parameter sets: RUA at
   threshold 0 and SP at 1000. *)
let engines =
  let hd = High_density.default in
  [
    ("bfs", fun ?pool t -> Bfs.run ?pool t);
    ( "hd-rua",
      fun ?pool t ->
        High_density.run ?pool
          ~params:{ hd with threshold = 0; quality = 1.0 }
          t );
    ( "hd-sp",
      fun ?pool t ->
        High_density.run ?pool
          ~params:{ hd with meth = Approx.SP; threshold = 1000 }
          t );
  ]

let useq_trans man =
  Trans.build
    (Compile.compile ~man (Generate.microsequencer ~addr_bits:3 ~stack_depth:2))

let test_bfs_pool () =
  List.iter
    (fun (name, run) ->
      let states trans pool =
        let r = run ?pool trans in
        (r.Traversal.states, r.Traversal.reached)
      in
      let man0 = Bdd.create () in
      let s0, r0 = states (useq_trans man0) None in
      let want = export man0 r0 in
      List.iter
        (fun d ->
          with_pool d (fun pool ->
              let man = Bdd.create ~shared:(d > 1) () in
              let s, r = states (useq_trans man) (Some pool) in
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s states @ %d domains" name d)
                s0 s;
              Alcotest.(check string)
                (Printf.sprintf "%s reached set @ %d domains" name d)
                want (export man r)))
        domain_counts)
    engines

(* Cache wipes from the fault hook land on whichever domain hits the
   kernel beat, mid-operation, while the other domains probe their own
   table sets.  Whatever the schedule, a pooled BFS must reach the
   sequential run's set, byte for byte. *)
let test_bfs_pool_cache_wipes () =
  let man0 = Bdd.create () in
  let want = export man0 (Bfs.run (useq_trans man0)).Traversal.reached in
  let config = { Resil.Fault.disabled with seed = 5; p_cache_wipe = 0.05 } in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          let man = Bdd.create ~shared:true () in
          let trans = useq_trans man in
          Resil.Fault.attach ~config man;
          let wipes = Resil.Fault.injected () in
          let r = Bfs.run ~pool trans in
          Alcotest.(check bool)
            (Printf.sprintf "caches wiped @ %d domains" d)
            true
            (Resil.Fault.injected () > wipes);
          Alcotest.(check string)
            (Printf.sprintf "reached set under wipes @ %d domains" d)
            want (export man r.Traversal.reached)))
    domain_counts

(* --- pooled serve requests vs the sequential handler ------------------- *)

(* A seeded Lit/Apply sequence through Handler.handle ~pool on a shared
   session draws the same reply frames, byte for byte, as the same
   sequence on a session without a pool. *)
let test_handler_pool () =
  let nvars = 10 and requests = 300 in
  let sequence () =
    let rng = Random.State.make [| 21 |] in
    let int n = Random.State.int rng n in
    let live = ref 0 in
    let handle () = 1 + int !live in
    List.init requests (fun i ->
        let open Serve.Proto in
        let req =
          if i < 4 || int 4 = 0 then
            Lit { var = int nvars; phase = Random.State.bool rng }
          else
            match int 6 with
            | 0 -> Apply (And (handle (), handle ()))
            | 1 -> Apply (Or (handle (), handle ()))
            | 2 -> Apply (Xor (handle (), handle ()))
            | 3 -> Apply (Ite (handle (), handle (), handle ()))
            | 4 -> Apply (Exists ([ int nvars; int nvars ], handle ()))
            | _ -> Apply (Forall ([ int nvars ], handle ()))
        in
        incr live;
        req)
  in
  let replies ?pool session =
    List.map
      (fun req ->
        Serve.Proto.encode_reply
          (Serve.Handler.handle ?pool Resil.Degrade.no_budget session req))
      (sequence ())
  in
  let want = replies (Serve.Session.create ~id:0 ()) in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          let got =
            replies ~pool (Serve.Session.create ~shared:true ~id:0 ())
          in
          List.iteri
            (fun i (w, g) ->
              Alcotest.(check string)
                (Printf.sprintf "reply %d @ %d domains" i d)
                w g)
            (List.combine want got)))
    domain_counts

(* --- stress: concurrent mk/apply on one shared manager ---------------- *)

(* Four domains hammer a single shared manager with interleaved variable
   materialization, connectives and quantification over overlapping
   variable ranges, then every result is checked against a private
   sequential manager and the manager's own bookkeeping is audited. *)
let test_shared_stress () =
  let domains = 4 and rounds = 120 and stress_vars = 12 in
  let man = Bdd.create ~shared:true () in
  (* variables are deliberately NOT pre-materialized: racing ithvar makes
     the domains contend on var_lock (grow_vars) as well as the table *)
  let work mgr k () =
    let acc = ref (Bdd.tt mgr) in
    for i = 0 to rounds - 1 do
      let v1 = (i + k) mod stress_vars
      and v2 = (i + (3 * k) + 5) mod stress_vars in
      let x = Bdd.ithvar mgr v1 and y = Bdd.ithvar mgr v2 in
      let t =
        match i mod 4 with
        | 0 -> Bdd.band mgr (Bdd.bor mgr x y) (Bdd.bnot mgr !acc)
        | 1 -> Bdd.bxor mgr !acc (Bdd.band mgr x (Bdd.bnot mgr y))
        | 2 -> Bdd.ite mgr x !acc y
        | _ -> Bdd.exists mgr ~vars:(Bdd.cube mgr [ v1 ]) (Bdd.bor mgr !acc y)
      in
      acc := t
    done;
    !acc
  in
  let spawned =
    List.init domains (fun k -> Domain.spawn (work man ((2 * k) + 1)))
  in
  let results = List.map Domain.join spawned in
  (* every domain's result must equal a sequential replay of its own
     deterministic op sequence on a private manager *)
  List.iteri
    (fun k f ->
      let man0 = Bdd.create () in
      let f0 = work man0 ((2 * k) + 1) () in
      Alcotest.(check string)
        (Printf.sprintf "domain %d result" k)
        (export man0 f0) (export man f))
    results;
  (* canonicity survived the races: rebuilding any result hits the table *)
  List.iter
    (fun f -> Alcotest.(check bool) "canonical" true (Bdd.equal f f))
    results;
  let st = Bdd.stats man in
  let v name = Option.value ~default:0 (List.assoc_opt name st) in
  Alcotest.(check bool) "unique_size <= nodes_made" true
    (v "unique_size" <= v "nodes_made");
  Alcotest.(check bool) "peak_unique >= unique_size" true
    (v "peak_unique" >= v "unique_size");
  let c = Bdd.contention man in
  Alcotest.(check bool) "cache_races <= cache_inserts" true
    (c.Bdd.cache_races <= c.Bdd.cache_inserts);
  Alcotest.(check bool) "cas_retries <= ut_locks" true
    (c.Bdd.cas_retries <= c.Bdd.ut_locks);
  Alcotest.(check bool) "stripe_waits <= ut_locks" true
    (c.Bdd.stripe_waits <= c.Bdd.ut_locks);
  Alcotest.(check bool) "counters non-negative" true
    (c.Bdd.cas_retries >= 0 && c.Bdd.stripe_waits >= 0
    && c.Bdd.cache_races >= 0 && c.Bdd.cache_probes >= 0)

(* --- guard rails ------------------------------------------------------ *)

let test_par_requires_shared () =
  with_pool 2 (fun pool ->
      let man = Bdd.create ~nvars:2 () in
      let x = Bdd.ithvar man 0 and y = Bdd.ithvar man 1 in
      match Bdd.band ~pool man x y with
      | _ -> Alcotest.fail "band ~pool on a private manager should raise"
      | exception Invalid_argument _ -> ())

let test_pool_size_one_inline () =
  (* a 1-worker pool must not require a shared manager: it degenerates to
     the sequential kernel on the calling domain *)
  with_pool 1 (fun pool ->
      let man = Bdd.create ~nvars:4 () in
      let x = Bdd.ithvar man 0 and y = Bdd.ithvar man 1 in
      let r = Bdd.band ~pool man x y in
      Alcotest.(check bool) "same as band" true
        (Bdd.equal r (Bdd.band man x y)))

(* Tpool.stats counts a steal only for an execution that crossed deques.
   A caller that forks and at once joins claims each task inline and
   leaves its deque entry behind, stale: a helper that steals one runs
   nothing.  Four workers, because helpers' domain ids are consecutive:
   at most one of three helpers shares the caller's deque slot. *)
let test_pool_steals_are_executions () =
  let n = 2000 in
  let caller = (Domain.self () :> int) in
  let ran = Array.init (n + 1) (fun _ -> Atomic.make caller) in
  let task i () = Atomic.set ran.(i) (Domain.self () :> int) in
  let steals =
    with_pool 4 (fun pool ->
        for i = 0 to n - 1 do
          Tpool.join pool (Tpool.fork pool (task i))
        done;
        (* leave the last task to the helpers: they steal oldest first,
           so once it has run the stale entries before it are taken *)
        let last = Tpool.fork pool (task n) in
        let give_up = Unix.gettimeofday () +. 5. in
        while Atomic.get ran.(n) = caller && Unix.gettimeofday () < give_up do
          Domain.cpu_relax ()
        done;
        Tpool.join pool last;
        let _, _, steals = Tpool.stats pool in
        steals)
  in
  let elsewhere =
    Array.fold_left
      (fun k d -> if Atomic.get d <> caller then k + 1 else k)
      0 ran
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d steals <= %d tasks run off the forking domain" steals
       elsewhere)
    true (steals <= elsewhere)

let tests =
  ( "par",
    [
      qtest "par_apply/par_ite = oracle @ PAR_TEST_DOMAINS"
        (Tgen.arbitrary_expr ~nvars ~depth:6)
        prop_par_matches_oracle;
      qtest ~count:60 "par_exist_and = and_exists @ PAR_TEST_DOMAINS"
        QCheck.(
          pair
            (Tgen.arbitrary_expr ~nvars ~depth:5)
            (Tgen.arbitrary_expr ~nvars ~depth:5))
        (fun (a, b) -> prop_par_exist_and a b);
      Alcotest.test_case "Bfs ?pool bit-identical" `Quick test_bfs_pool;
      Alcotest.test_case "Bfs ?pool bit-identical under cache wipes" `Quick
        test_bfs_pool_cache_wipes;
      Alcotest.test_case "Handler ?pool replies byte-identical" `Quick
        test_handler_pool;
      Alcotest.test_case "4-domain shared-manager stress" `Quick
        test_shared_stress;
      Alcotest.test_case "par on private manager raises" `Quick
        test_par_requires_shared;
      Alcotest.test_case "1-worker pool inlines" `Quick
        test_pool_size_one_inline;
      Alcotest.test_case "Tpool steals are executions, not stale entries"
        `Quick test_pool_steals_are_executions;
    ] )
