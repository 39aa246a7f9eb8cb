(* Tests for the paper's Section 2: HB, SP, UA, RUA, minimization and the
   compound methods. *)

let nvars = 7
let arb = Tgen.arbitrary_expr ~nvars ~depth:7

let qtest ?(count = 300) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

let density man f = Bdd.density man f ~nvars

(* ------------------------------------------------------------------ *)
(* Unit tests                                                         *)
(* ------------------------------------------------------------------ *)

let test_rua_constants () =
  let man = Bdd.create ~nvars:4 () in
  Alcotest.(check bool) "RUA tt" true
    (Bdd.equal (Remap.approximate man (Bdd.tt man)) (Bdd.tt man));
  Alcotest.(check bool) "RUA ff" true
    (Bdd.equal (Remap.approximate man (Bdd.ff man)) (Bdd.ff man))

let test_rua_threshold_noop () =
  (* a threshold at least |f| stops marking before any replacement *)
  let man = Bdd.create ~nvars:6 () in
  let f =
    Bdd.bor man
      (Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 3))
      (Bdd.band man (Bdd.ithvar man 1) (Bdd.bnot man (Bdd.ithvar man 4)))
  in
  let r = Remap.approximate man ~threshold:(Bdd.size f) f in
  Alcotest.(check bool) "unchanged" true (Bdd.equal r f)

let test_rua_remap_example () =
  (* f unate in its top variable: f = x·(y + z) + x'·y.  Here f_e = y ≤
     f_t = y + z, so remap can replace the root by f_e — and that is a
     strict density win the algorithm must find. *)
  let man = Bdd.create ~nvars:3 () in
  let x = Bdd.ithvar man 0
  and y = Bdd.ithvar man 1
  and z = Bdd.ithvar man 2 in
  let f = Bdd.bor man (Bdd.band man x z) y in
  (* f = y + xz; f_e = y, f_t = y + z *)
  let r, stats = Remap.approximate_with_stats man f in
  Alcotest.(check bool) "subset" true (Bdd.leq man r f);
  Alcotest.(check bool) "denser" true (density man r >= density man f -. 1e-9);
  Alcotest.(check bool) "some replacement happened" true
    (stats.Remap.replacements > 0)

let test_hb_chain_shape () =
  let man = Bdd.create ~nvars:8 () in
  (* a function whose BDD is wide: majority-ish *)
  let vs = List.init 8 (Bdd.ithvar man) in
  let pairs =
    [ (0, 1); (2, 3); (4, 5); (6, 7) ]
    |> List.map (fun (a, b) -> Bdd.band man (List.nth vs a) (List.nth vs b))
  in
  let f = Bdd.disj man pairs in
  let t = 4 in
  let r = Heavy_branch.approximate man ~threshold:t f in
  Alcotest.(check bool) "subset" true (Bdd.leq man r f);
  Alcotest.(check bool) "fits" true (Bdd.size r <= max t 8);
  Alcotest.(check bool) "nonempty" true (not (Bdd.is_false r))

let test_sp_keeps_shortest_implicant () =
  let man = Bdd.create ~nvars:6 () in
  (* f = x0 + (x1 x2 x3 x4 x5): the short path is the single literal *)
  let x0 = Bdd.ithvar man 0 in
  let long = Bdd.conj man (List.init 5 (fun i -> Bdd.ithvar man (i + 1))) in
  let f = Bdd.bor man x0 long in
  let r = Short_paths.approximate man ~threshold:1 f in
  Alcotest.(check bool) "keeps x0" true (Bdd.equal r x0)

let test_sp_threshold_is_soft () =
  (* f = x0·x1 + x2·x3·x4: the shortest root-to-1 paths through its five
     nodes have lengths 2, 2, 4, 4, 4.  At threshold 3 the bound is the
     third-shortest length, 4, and every node of that length stays: the
     result is f itself, 5 nodes, although bound 2 would keep 2. *)
  let man = Bdd.create ~nvars:5 () in
  let v = Bdd.ithvar man in
  let x01 = Bdd.band man (v 0) (v 1) in
  let f = Bdd.bor man x01 (Bdd.conj man [ v 2; v 3; v 4 ]) in
  Alcotest.(check int) "|f|" 5 (Bdd.size f);
  Alcotest.(check bool) "threshold 3 keeps the tie at length 4" true
    (Bdd.equal f (Short_paths.approximate man ~threshold:3 f));
  Alcotest.(check bool) "threshold 2 keeps the two nodes of length 2" true
    (Bdd.equal x01 (Short_paths.approximate man ~threshold:2 f))

let test_minimize_interval () =
  let man = Bdd.create ~nvars:4 () in
  let l = Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 1) in
  let u = Bdd.bor man (Bdd.ithvar man 0) (Bdd.ithvar man 1) in
  let m = Minimize.minimize man ~lower:l ~upper:u in
  Alcotest.(check bool) "safe" true (Minimize.is_safe man ~lower:l ~upper:u m)

let test_minimize_raises () =
  let man = Bdd.create ~nvars:2 () in
  let l = Bdd.ithvar man 0 and u = Bdd.ithvar man 1 in
  Alcotest.check_raises "lower > upper"
    (Invalid_argument "Minimize.minimize: lower > upper") (fun () ->
      ignore (Minimize.minimize man ~lower:l ~upper:u))

let test_method_names () =
  List.iter
    (fun m ->
      Alcotest.(check (option string))
        (Approx.method_name m) (Some (Approx.method_name m))
        (Option.map Approx.method_name
           (Approx.method_of_string (Approx.method_name m))))
    Approx.all_methods;
  Alcotest.(check bool) "unknown" true (Approx.method_of_string "XX" = None)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_all_methods_under =
  qtest ~count:120 "every method underapproximates"
    arb
    (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      List.for_all
        (fun m -> Bdd.leq man (Approx.under man m f) f)
        Approx.all_methods)

let prop_all_methods_over =
  qtest ~count:60 "every dual method overapproximates"
    arb
    (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      List.for_all
        (fun m -> Bdd.leq man f (Approx.over man m f))
        Approx.all_methods)

let prop_rua_safe =
  qtest "RUA with quality 1 is safe (density never decreases)" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let r = Remap.approximate man ~quality:1.0 f in
      density man r >= density man f -. 1e-9)

let prop_rua_conservative_quality =
  qtest "an unreachable quality factor leaves f unchanged" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      (* the density ratio of any replacement is bounded by |f|, so a huge
         quality factor rejects everything *)
      Bdd.equal f (Remap.approximate man ~quality:1e12 f))

let prop_rua_estimates =
  qtest "RUA estimates: size bound holds, minterms exact" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let r, stats = Remap.approximate_with_stats man f in
      Bdd.size r <= stats.Remap.estimated_size
      && abs_float (Bdd.weight man r -. stats.Remap.estimated_minterm_fraction)
         < 1e-9)

let prop_c1_dominates_rua =
  qtest "C1 retains at least RUA's minterms at no size cost" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      let rua = Remap.approximate man f in
      let c1 = Compound.c1 man f in
      Bdd.count_minterms man c1 ~nvars
      >= Bdd.count_minterms man rua ~nvars -. 1e-9
      && Bdd.size c1 <= Bdd.size rua)

let prop_c1_safe =
  qtest "C1 is safe" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let c1 = Compound.c1 man f in
      density man c1 >= density man f -. 1e-9)

let prop_c2_under =
  qtest ~count:120 "C2 is an underapproximation no larger than f" arb
    (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      let c2 = Compound.c2 man f in
      Bdd.leq man c2 f && Bdd.size c2 <= Bdd.size f)

let prop_iterated_rua_safe =
  qtest ~count:120 "iterated RUA is safe" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let r = Compound.iterated_rua man f in
      Bdd.leq man r f && density man r >= density man f -. 1e-9)

let prop_hb_nonempty =
  qtest "HB of a satisfiable function is satisfiable" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let r = Heavy_branch.approximate man ~threshold:2 f in
      not (Bdd.is_false r))

let prop_hb_threshold =
  qtest "HB respects a generous threshold"
    QCheck.(pair arb (int_range 3 20))
    (fun (e, t) ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let t = max t nvars in
      (* a threshold of at least one node per level is always honourable *)
      Bdd.size (Heavy_branch.approximate man ~threshold:t f) <= t)

let prop_sp_nonempty =
  qtest "SP of a satisfiable function is satisfiable" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      not (Bdd.is_false (Short_paths.approximate man ~threshold:1 f)))

let prop_ua_under =
  qtest "UA underapproximates at every weight"
    QCheck.(pair arb (float_range 0.0 1.0))
    (fun (e, w) ->
      let man, f, _ = Tgen.setup ~nvars e in
      let r =
        Under_approx.approximate man
          ~params:{ Under_approx.threshold = 0; weight = w }
          f
      in
      Bdd.leq man r f)

let prop_rua_thresholded_estimates =
  qtest "RUA estimates hold under early stop and low quality"
    QCheck.(triple arb (int_range 1 40) (float_range 0.4 1.5))
    (fun (e, threshold, quality) ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let r, stats = Remap.approximate_with_stats man ~threshold ~quality f in
      Bdd.leq man r f
      && Bdd.size r <= stats.Remap.estimated_size
      && abs_float (Bdd.weight man r -. stats.Remap.estimated_minterm_fraction)
         < 1e-9)

let prop_rua_after_reorder =
  qtest ~count:100 "RUA remains safe and exact under permuted orders"
    QCheck.(pair arb (make (Tgen.permutation_gen nvars)))
    (fun (e, order) ->
      let man, f, _ = Tgen.setup ~nvars e in
      match Bdd.reorder man ~order ~roots:[ f ] with
      | [ f ] ->
          QCheck.assume (not (Bdd.is_const f));
          let r, stats = Remap.approximate_with_stats man f in
          Bdd.leq man r f
          && density man r >= density man f -. 1e-9
          && Bdd.size r <= stats.Remap.estimated_size
          && abs_float
               (Bdd.weight man r -. stats.Remap.estimated_minterm_fraction)
             < 1e-9
      | _ -> false)

let prop_minimize_safe =
  qtest "minimize is safe on random intervals"
    QCheck.(pair arb arb)
    (fun (e1, e2) ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e1 and g = Tgen.build_bdd man e2 in
      let lower = Bdd.band man f g and upper = Bdd.bor man f g in
      let m = Minimize.minimize man ~lower ~upper in
      Minimize.is_safe man ~lower ~upper m)

let prop_restrict_interval_member =
  qtest "restrict_to_interval stays in the interval"
    QCheck.(pair arb arb)
    (fun (e1, e2) ->
      let man = Bdd.create ~nvars () in
      let f = Tgen.build_bdd man e1 and g = Tgen.build_bdd man e2 in
      let lower = Bdd.band man f g and upper = Bdd.bor man f g in
      let m = Minimize.restrict_to_interval man ~lower ~upper in
      Bdd.leq man lower m && Bdd.leq man m upper)

let tests =
  ( "approx",
    [
      Alcotest.test_case "RUA constants" `Quick test_rua_constants;
      Alcotest.test_case "RUA threshold no-op" `Quick test_rua_threshold_noop;
      Alcotest.test_case "RUA remap example" `Quick test_rua_remap_example;
      Alcotest.test_case "HB chain shape" `Quick test_hb_chain_shape;
      Alcotest.test_case "SP shortest implicant" `Quick
        test_sp_keeps_shortest_implicant;
      Alcotest.test_case "minimize interval" `Quick test_minimize_interval;
      Alcotest.test_case "minimize raises" `Quick test_minimize_raises;
      Alcotest.test_case "method names" `Quick test_method_names;
      prop_all_methods_under;
      prop_all_methods_over;
      prop_rua_safe;
      prop_rua_conservative_quality;
      prop_rua_estimates;
      prop_c1_dominates_rua;
      prop_c1_safe;
      prop_c2_under;
      prop_iterated_rua_safe;
      prop_hb_nonempty;
      prop_hb_threshold;
      prop_sp_nonempty;
      prop_ua_under;
      prop_rua_thresholded_estimates;
      prop_rua_after_reorder;
      prop_minimize_safe;
      prop_restrict_interval_member;
      Alcotest.test_case "SP threshold is soft" `Quick
        test_sp_threshold_is_soft;
    ] )
