(* Kernel memory-subsystem tests: the packed open-addressing unique table
   and the lossy direct-mapped computed caches.

   Correctness is re-proven against the truth-table oracle with the
   smallest legal [cache_limit] (the 1024-slot floor), so direct-mapped
   collisions and overwrites actually happen during the properties, and
   the bookkeeping invariants are checked explicitly: caches stay within
   their bound under a long random workload, [Node_limit] fires at the
   exact count, and the [Bdd.stats] counters are monotone and agree
   across [--jobs] values. *)

let nvars = 6
let arb = Tgen.arbitrary_expr ~nvars ~depth:6

let qtest ?(count = 300) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

(* A manager whose computed caches are clamped to the 1024-slot floor:
   everything built through it runs under heavy overwrite pressure. *)
let tiny_man () =
  let man = Bdd.create ~nvars () in
  Bdd.set_cache_limit man 1;
  man

let setup_tiny e =
  let man = tiny_man () in
  let f = Tgen.build_bdd man e in
  let o = Tgen.build_oracle nvars e in
  (man, f, o)

let check_same man f o = Oracle.equal (Oracle.of_bdd man nvars f) o
let stat st key = Option.value ~default:0 (List.assoc_opt key st)

(* ------------------------------------------------------------------ *)
(* Oracle equivalence under lossy caches                               *)
(* ------------------------------------------------------------------ *)

let prop_connectives_tiny =
  qtest "connectives match oracle under 1k lossy caches" arb (fun e ->
      let man, f, o = setup_tiny e in
      check_same man f o)

let prop_not_tiny =
  qtest "double negation under 1k lossy caches" arb (fun e ->
      let man, f, o = setup_tiny e in
      Bdd.equal f (Bdd.bnot man (Bdd.bnot man f))
      && check_same man (Bdd.bnot man f) (Oracle.not_ o))

let prop_exists_tiny =
  qtest "exists matches oracle under 1k lossy caches"
    QCheck.(pair arb (make (Tgen.var_subset_gen nvars)))
    (fun (e, vs) ->
      let man, f, o = setup_tiny e in
      let r = Bdd.exists man ~vars:(Bdd.cube man vs) f in
      check_same man r (Oracle.exists o vs))

let prop_forall_tiny =
  qtest "forall matches oracle under 1k lossy caches"
    QCheck.(pair arb (make (Tgen.var_subset_gen nvars)))
    (fun (e, vs) ->
      let man, f, o = setup_tiny e in
      let r = Bdd.forall man ~vars:(Bdd.cube man vs) f in
      check_same man r (Oracle.forall o vs))

let prop_and_exists_tiny =
  qtest "and_exists = exists of conjunction under 1k lossy caches"
    QCheck.(triple arb arb (make (Tgen.var_subset_gen nvars)))
    (fun (e1, e2, vs) ->
      let man = tiny_man () in
      let f = Tgen.build_bdd man e1 and g = Tgen.build_bdd man e2 in
      let cube = Bdd.cube man vs in
      Bdd.equal
        (Bdd.and_exists man ~vars:cube f g)
        (Bdd.exists man ~vars:cube (Bdd.band man f g)))

let prop_constrain_tiny =
  qtest "f ∧ c = c ∧ constrain(f,c) under 1k lossy caches"
    QCheck.(pair arb arb)
    (fun (e1, e2) ->
      let man = tiny_man () in
      let f = Tgen.build_bdd man e1 and c = Tgen.build_bdd man e2 in
      QCheck.assume (not (Bdd.is_false c));
      Bdd.equal (Bdd.band man f c) (Bdd.band man c (Bdd.constrain man f c)))

let prop_restrict_tiny =
  qtest "restrict agrees on the care set under 1k lossy caches"
    QCheck.(pair arb arb)
    (fun (e1, e2) ->
      let man = tiny_man () in
      let f = Tgen.build_bdd man e1 and c = Tgen.build_bdd man e2 in
      QCheck.assume (not (Bdd.is_false c));
      let r = Bdd.restrict man f c in
      Bdd.equal (Bdd.band man r c) (Bdd.band man f c))

let prop_leq_tiny =
  qtest "leq matches oracle under 1k lossy caches"
    QCheck.(pair arb arb)
    (fun (e1, e2) ->
      let man = tiny_man () in
      let f = Tgen.build_bdd man e1 and g = Tgen.build_bdd man e2 in
      Bdd.leq man f g
      = Oracle.leq (Tgen.build_oracle nvars e1) (Tgen.build_oracle nvars e2))

let prop_weight_tiny =
  qtest "weight matches oracle density under 1k lossy caches" arb (fun e ->
      let man, f, o = setup_tiny e in
      let expect = float_of_int (Oracle.count o) /. float_of_int (1 lsl nvars) in
      Float.abs (Bdd.weight man f -. expect) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Cache bound under a long random workload                            *)
(* ------------------------------------------------------------------ *)

(* Regression for the old unbounded [not_cache] / duplicate-binding
   [cache_add]: hammer one tiny-cache manager with hundreds of random
   expressions (plus negations, quantifications and weights, so every
   computed cache sees traffic) and check the caches never exceed the
   configured ceiling. *)
let test_cache_bound () =
  let wide = 10 in
  let man = Bdd.create ~nvars:wide () in
  Bdd.set_cache_limit man 1024;
  let rand = Random.State.make [| 0x5eed |] in
  let gen = Tgen.expr_gen ~nvars:wide ~depth:7 in
  for i = 0 to 499 do
    let f = Tgen.build_bdd man (QCheck.Gen.generate1 ~rand gen) in
    let g = Bdd.bnot man f in
    let vars = Bdd.cube man [ i mod wide; (i * 3 + 1) mod wide ] in
    ignore (Bdd.exists man ~vars f);
    ignore (Bdd.and_exists man ~vars f g);
    ignore (Bdd.leq man f g);
    ignore (Bdd.weight man f)
  done;
  let st = Bdd.stats man in
  let entries = stat st "cache_entries"
  and capacity = stat st "cache_capacity" in
  Alcotest.(check bool) "entries <= capacity" true (entries <= capacity);
  (* 8 node caches + the weight cache, each clamped to <= 1024 slots *)
  Alcotest.(check bool)
    (Printf.sprintf "capacity %d within 9 * limit" capacity)
    true
    (capacity <= 9 * 1024);
  Alcotest.(check bool) "ite cache bounded" true (stat st "ite_cache" <= 1024);
  Alcotest.(check bool) "op cache bounded" true (stat st "op_cache" <= 1024);
  (* raising the limit afterwards must also re-clamp on the way down *)
  Bdd.set_cache_limit man 4096;
  Bdd.set_cache_limit man 1024;
  let st = Bdd.stats man in
  Alcotest.(check bool)
    "capacity re-clamped" true
    (stat st "cache_capacity" <= 9 * 1024)

(* ------------------------------------------------------------------ *)
(* Node_limit fires at the exact count                                 *)
(* ------------------------------------------------------------------ *)

let test_node_limit_exact () =
  let limit = 10 in
  let man = Bdd.create ~nvars:16 () in
  Bdd.set_node_limit man (Some limit);
  let build () =
    List.fold_left
      (fun acc v -> Bdd.bxor man acc (Bdd.ithvar man v))
      (Bdd.ff man)
      (List.init 16 Fun.id)
  in
  (match build () with
  | _ -> Alcotest.fail "Node_limit not raised"
  | exception Bdd.Node_limit -> ());
  Alcotest.(check int) "stopped at exactly the limit" limit
    (Bdd.unique_size man);
  (* removing the limit lets the same construction finish *)
  Bdd.set_node_limit man None;
  Alcotest.(check int) "parity16 after lifting the limit" 31
    (Bdd.size (build ()))

(* ------------------------------------------------------------------ *)
(* Stats counters are monotone                                         *)
(* ------------------------------------------------------------------ *)

let test_stats_monotone () =
  let man = Bdd.create ~nvars:8 () in
  let prev = ref (Bdd.stats man) in
  let keys = [ "nodes_made"; "peak_unique"; "cache_hits"; "cache_misses" ] in
  for i = 0 to 63 do
    let f =
      Bdd.conj man
        (List.init 4 (fun k -> Bdd.ithvar man ((i + (k * 3)) mod 8)))
    in
    ignore (Bdd.bnot man (Bdd.bor man f (Bdd.ithvar man (i mod 8))));
    ignore (Bdd.weight man f);
    let st = Bdd.stats man in
    List.iter
      (fun key ->
        if stat st key < stat !prev key then
          Alcotest.failf "%s decreased: %d -> %d" key (stat !prev key)
            (stat st key))
      keys;
    if stat st "peak_unique" < Bdd.unique_size man then
      Alcotest.fail "peak_unique below live unique_size";
    prev := st
  done;
  (* clearing caches must not disturb the lifetime hit/miss counters *)
  let before = Bdd.stats man in
  Bdd.clear_caches man;
  let after = Bdd.stats man in
  List.iter
    (fun key ->
      Alcotest.(check int)
        (key ^ " survives clear_caches")
        (stat before key) (stat after key))
    keys

(* ------------------------------------------------------------------ *)
(* Stats are identical across --jobs values                            *)
(* ------------------------------------------------------------------ *)

(* Each Mt.Runner job gets a fresh private manager, so the per-job
   counters must not depend on how many workers ran the batch. *)
let test_stats_across_jobs () =
  let mk_jobs () =
    List.map
      (fun width ->
        Mt.Runner.job ~label:(Printf.sprintf "parity%d" width) (fun man ->
            let parity =
              List.fold_left
                (fun acc v -> Bdd.bxor man acc (Bdd.ithvar man v))
                (Bdd.ff man)
                (List.init width Fun.id)
            in
            ignore (Bdd.exists man ~vars:(Bdd.cube man [ 0; 1 ]) parity);
            Bdd.size parity))
      [ 8; 10; 12; 14 ]
  in
  let strip (r : _ Mt.Runner.result) =
    let rep = r.Mt.Runner.report in
    ( rep.Mt.Runner.label,
      rep.Mt.Runner.peak_nodes,
      rep.Mt.Runner.nodes_made,
      rep.Mt.Runner.cache_hits,
      rep.Mt.Runner.cache_misses,
      Mt.Runner.value r )
  in
  let seq = List.map strip (Mt.Runner.run ~jobs:1 (mk_jobs ()))
  and par = List.map strip (Mt.Runner.run ~jobs:3 (mk_jobs ())) in
  List.iter2
    (fun (l1, pk1, nm1, h1, m1, v1) (l2, pk2, nm2, h2, m2, v2) ->
      Alcotest.(check string) "label" l1 l2;
      Alcotest.(check int) (l1 ^ " peak_nodes") pk1 pk2;
      Alcotest.(check int) (l1 ^ " nodes_made") nm1 nm2;
      Alcotest.(check int) (l1 ^ " cache_hits") h1 h2;
      Alcotest.(check int) (l1 ^ " cache_misses") m1 m2;
      Alcotest.(check (option int)) (l1 ^ " value") v1 v2)
    seq par

(* ------------------------------------------------------------------ *)
(* Table_full: the documented capacity ceiling                          *)
(* ------------------------------------------------------------------ *)

(* Build disjoint conjunctions until the ceiling fires.  The raise must
   happen before the probe loop could saturate a stripe, the ut_full
   counter must record it, and the manager must stay fully usable: the
   nodes built so far still evaluate, and clearing the ceiling lets the
   same construction complete. *)
let test_table_full ~shared () =
  let n = 16 in
  let man = Bdd.create ~nvars:n ~shared () in
  Bdd.set_table_capacity man (Some 64);
  Alcotest.(check (option int)) "capacity readback" (Some 64)
    (Bdd.table_capacity man);
  (* a dense pseudo-random function of 16 variables: ~2^16/16 distinct
     nodes, enough to push every stripe of the striped layout (which has
     a 64-slot-per-stripe floor) past its share *)
  let bit idx =
    let z = (idx + 0x9e3779b9) * 0x45d9f3b in
    let z = (z lxor (z lsr 16)) * 0x45d9f3b in
    (z lxor (z lsr 16)) land 1 = 1
  in
  let rec shannon v idx =
    if v = n then if bit idx then Bdd.tt man else Bdd.ff man
    else
      let hi = shannon (v + 1) (idx lor (1 lsl v))
      and lo = shannon (v + 1) idx in
      Bdd.ite man (Bdd.ithvar man v) hi lo
  in
  let build () = Bdd.size (shannon 0 0) in
  (match build () with
  | exception Bdd.Table_full -> ()
  | sz -> Alcotest.failf "expected Table_full under a 64-slot ceiling, built %d" sz);
  Alcotest.(check bool) "ut_full counted" true (Bdd.ut_full_hits man > 0);
  Alcotest.(check bool) "stats surface ut_full" true
    (stat (Bdd.stats man) "ut_full" > 0);
  (* the manager survived: existing values still behave.  Variable 15 is
     interned by the very first bottom-level ite, long before the raise;
     looking it up is a hit-path scan and band's terminal rule allocates
     nothing, so neither can raise again. *)
  let x15 = Bdd.ithvar man 15 in
  Alcotest.(check bool) "manager usable after Table_full" true
    (Bdd.equal x15 (Bdd.band man x15 x15));
  (* clearing the ceiling unblocks the identical construction *)
  Bdd.set_table_capacity man None;
  Alcotest.(check bool) "construction completes unbounded" true (build () > 1000)

(* ------------------------------------------------------------------ *)
(* Scratch-table leases                                                *)
(* ------------------------------------------------------------------ *)

(* Traversals lease a scratch table from a per-domain pool for the length
   of one call.  A lease must come back on every exit, must never be
   shared by two calls at once, and a returned table must pin no node. *)

let digest man f = Bdd.serialized_digest (Bdd.export man f)

(* The multiplier's middle product bits: BDDs of 30-170 nodes that
   cofactor and RUA rebuild into nodes f does not have. *)
let lease_circuit () = Generate.multiplier ~bits:5

let lease_functions man =
  let c = Compile.compile ~man (lease_circuit ()) in
  List.filter (fun f -> Bdd.size f >= 30) (List.map snd c.Compile.output_fns)

(* Every answer the lease properties compare: sizes, both cofactors on
   every variable, and RUA, as digests. *)
let lease_answers man fs =
  List.concat_map
    (fun f ->
      string_of_int (Bdd.size f)
      :: digest man (Remap.approximate man f)
      :: List.concat_map
           (fun v ->
             [
               digest man (Bdd.cofactor man f ~var:v true);
               digest man (Bdd.cofactor man f ~var:v false);
             ])
           (Bdd.support man f))
    fs

let sequential_answers () =
  let man = Bdd.create () in
  lease_answers man (lease_functions man)

let test_lease_nested () =
  let man = Bdd.create () in
  let fs = lease_functions man in
  List.iter
    (fun f ->
      (* sizes and cofactors taken inside another traversal's callback
         agree with the same calls made outside any traversal *)
      let outside =
        List.map (fun n -> (Bdd.size n, Bdd.nodes n)) (Bdd.nodes f)
      in
      let var = Bdd.topvar f in
      let cof = Bdd.cofactor man f ~var true in
      let inside = ref [] and visited = ref 0 in
      Bdd.iter_nodes
        (fun n ->
          incr visited;
          Alcotest.(check bool) "nested cofactor" true
            (Bdd.equal cof (Bdd.cofactor man f ~var true));
          inside := (Bdd.size n, Bdd.nodes n) :: !inside)
        f;
      Alcotest.(check int) "outer traversal visits every node once"
        (Bdd.size f) !visited;
      Alcotest.(check bool) "nested sizes and node lists" true
        (List.for_all2
           (fun (s, ns) (s', ns') -> s = s' && List.for_all2 Bdd.equal ns ns')
           outside (List.rev !inside)))
    fs

let test_lease_node_limit () =
  let expected = sequential_answers () in
  let man = Bdd.create () in
  let fs = lease_functions man in
  ignore (Bdd.gc man ~roots:fs);
  (* no node may be made: the first one a call needs raises *)
  let raises fn =
    Bdd.set_node_limit man (Some (Bdd.unique_size man));
    let r = match fn () with _ -> false | exception Bdd.Node_limit -> true in
    Bdd.set_node_limit man None;
    r
  in
  let count p = List.length (List.filter p fs) in
  Alcotest.(check bool) "Node_limit raised inside RUA" true
    (count (fun f -> raises (fun () -> Remap.approximate man f)) > 0);
  Alcotest.(check bool) "Node_limit raised inside cofactor" true
    (count (fun f ->
         List.exists
           (fun var -> raises (fun () -> Bdd.cofactor man f ~var true))
           (Bdd.support man f))
    > 0);
  Alcotest.(check (list string)) "the same calls after the limit" expected
    (lease_answers man fs)

let test_lease_domains () =
  let expected = sequential_answers () in
  List.iter
    (fun domains ->
      let man = Bdd.create ~shared:true () in
      let fs = lease_functions man in
      let got =
        List.init domains (fun _ ->
            Domain.spawn (fun () -> lease_answers man fs))
        |> List.map Domain.join
      in
      List.iter
        (Alcotest.(check (list string))
           (Printf.sprintf "%d domains agree with a sequential run" domains)
           expected)
        got)
    (match List.filter (fun d -> d >= 2) Test_par.domain_counts with
    | [] -> [ 2 ]
    | ds -> ds)

(* [f]'s cofactor, held only through a weak pointer *)
let[@inline never] weak_cofactor man f ~var =
  let w = Weak.create 1 in
  let r = Bdd.cofactor man f ~var true in
  Weak.set w 0 (Some r);
  w

let test_lease_pins_nothing () =
  let man = Bdd.create () in
  let f =
    List.find
      (fun f -> Bdd.size f >= 100)
      (lease_functions man)
  in
  ignore (Bdd.gc man ~roots:[ f ]);
  let before = Bdd.unique_size man in
  let w = weak_cofactor man f ~var:(Bdd.topvar (Bdd.low f)) in
  Alcotest.(check bool) "the cofactor made nodes" true
    (Bdd.unique_size man > before);
  ignore (Bdd.gc man ~roots:[ f ]);
  Gc.full_major ();
  Alcotest.(check bool) "collected once nothing but the memo reached it" true
    (Weak.get w 0 = None)

let tests =
  ( "kernel",
    [
      Alcotest.test_case "cache bound under random workload" `Slow
        test_cache_bound;
      Alcotest.test_case "Table_full ceiling (private table)" `Quick
        (test_table_full ~shared:false);
      Alcotest.test_case "Table_full ceiling (striped table)" `Quick
        (test_table_full ~shared:true);
      Alcotest.test_case "Node_limit at exact count" `Quick
        test_node_limit_exact;
      Alcotest.test_case "stats counters monotone" `Quick test_stats_monotone;
      Alcotest.test_case "stats identical across jobs" `Quick
        test_stats_across_jobs;
      prop_connectives_tiny;
      prop_not_tiny;
      prop_exists_tiny;
      prop_forall_tiny;
      prop_and_exists_tiny;
      prop_constrain_tiny;
      prop_restrict_tiny;
      prop_leq_tiny;
      prop_weight_tiny;
      Alcotest.test_case "lease: nested traversals" `Quick test_lease_nested;
      Alcotest.test_case "lease: Node_limit returns it" `Quick
        test_lease_node_limit;
      Alcotest.test_case "lease: domains on a shared manager" `Quick
        test_lease_domains;
      Alcotest.test_case "lease: returned table pins no node" `Quick
        test_lease_pins_nothing;
    ] )
