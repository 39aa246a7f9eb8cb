(* Tests for the paper's Section 3: cofactor decomposition, the
   decomposition-point algorithm with Band and Disjoint selection, and
   McMillan's canonical conjunctive decomposition. *)

let nvars = 7
let arb = Tgen.arbitrary_expr ~nvars ~depth:7

let qtest ?(count = 300) name prop_arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop_arb prop)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                         *)
(* ------------------------------------------------------------------ *)

let test_cofactor_constant () =
  let man = Bdd.create ~nvars:3 () in
  let p = Decomp.conj_cofactor man (Bdd.tt man) in
  Alcotest.(check bool) "g = tt" true (Bdd.is_true p.Decomp.g);
  Alcotest.(check bool) "h = tt" true (Bdd.is_true p.Decomp.h);
  let p = Decomp.disj_cofactor man (Bdd.ff man) in
  Alcotest.(check bool) "g = ff" true (Bdd.is_false p.Decomp.g)

let test_equation_1 () =
  (* Equation (1) at a named variable on a hand-made function *)
  let man = Bdd.create ~nvars:4 () in
  let v i = Bdd.ithvar man i in
  let f =
    Bdd.bor man
      (Bdd.band man (v 0) (v 1))
      (Bdd.band man (v 2) (Bdd.bnot man (v 3)))
  in
  List.iter
    (fun x ->
      let p = Decomp.conj_cofactor_at man f x in
      Alcotest.(check bool)
        (Printf.sprintf "g·h = f at %d" x)
        true
        (Decomp.verify_conj man f p))
    (Bdd.support man f)

let test_best_split_var_raises () =
  let man = Bdd.create ~nvars:2 () in
  Alcotest.check_raises "constant"
    (Invalid_argument "Decomp.best_split_var: constant") (fun () ->
      ignore (Decomp.best_split_var man (Bdd.tt man)))

let test_band_points_middle () =
  let man = Bdd.create ~nvars:8 () in
  let f = Bdd.conj man (List.init 8 (Bdd.ithvar man)) in
  (* a cube: heights run 8 at the root down to 1; the default band keeps
     heights in [2.8, 5.2], i.e. nodes 3..5 levels above the constants *)
  let is_point = Decomp_points.band_points man f in
  let count = ref 0 in
  Bdd.iter_nodes (fun n -> if is_point n then incr count) f;
  Alcotest.(check int) "3 nodes in band" 3 !count

let test_mcmillan_cube () =
  let man = Bdd.create ~nvars:4 () in
  let f = Bdd.conj man (List.init 4 (Bdd.ithvar man)) in
  let gs = Mcmillan.decompose man f in
  Alcotest.(check bool) "verifies" true (Mcmillan.verify man f gs);
  Alcotest.(check int) "one factor per variable" 4 (List.length gs);
  List.iter
    (fun g -> Alcotest.(check int) "each factor is a literal" 1 (Bdd.size g))
    gs

let test_mcmillan_const () =
  let man = Bdd.create ~nvars:3 () in
  Alcotest.(check bool) "tt" true
    (Mcmillan.verify man (Bdd.tt man) (Mcmillan.decompose man (Bdd.tt man)));
  Alcotest.(check bool) "ff" true
    (Mcmillan.verify man (Bdd.ff man) (Mcmillan.decompose man (Bdd.ff man)))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_conj_cofactor =
  qtest "Cofactor: g ∧ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Decomp.verify_conj man f (Decomp.conj_cofactor man f))

let prop_disj_cofactor =
  qtest "disjunctive Cofactor: g ∨ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Decomp.verify_disj man f (Decomp.disj_cofactor man f))

let prop_decompose_arbitrary_points =
  qtest "decomposition points may be arbitrary nodes: g ∧ h = f"
    QCheck.(pair arb (int_range 1 7))
    (fun (e, modulus) ->
      let man, f, _ = Tgen.setup ~nvars e in
      (* a pseudo-random but deterministic point set *)
      let is_point n = Bdd.id n mod modulus = 0 in
      let p = Decomp_points.decompose man ~is_point f in
      Decomp.verify_conj man f p)

let prop_band =
  qtest "Band: g ∧ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Decomp.verify_conj man f (Decomp_points.band man f))

let prop_disjoint =
  qtest ~count:120 "Disjoint: g ∧ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Decomp.verify_conj man f (Decomp_points.disjoint man f))

let prop_all_points =
  qtest "every node a point: g ∧ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      let p = Decomp_points.decompose man ~is_point:(fun _ -> true) f in
      Decomp.verify_conj man f p)

let prop_mcmillan =
  qtest "McMillan: conjunction of factors = f, ≤ one per variable" arb
    (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      let gs = Mcmillan.decompose man f in
      Mcmillan.verify man f gs
      && List.length gs <= max 1 (List.length (Bdd.support man f)))

let prop_disj_band =
  qtest ~count:150 "disjunctive Band: g ∨ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Decomp.verify_disj man f (Decomp_points.disj_band man f))

let prop_disj_disjoint =
  qtest ~count:100 "disjunctive Disjoint: g ∨ h = f" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      Decomp.verify_disj man f (Decomp_points.disj_disjoint man f))

let prop_balance_bounds =
  qtest "balance and shared size are coherent" arb (fun e ->
      let man, f, _ = Tgen.setup ~nvars e in
      QCheck.assume (not (Bdd.is_const f));
      let p = Decomp_points.band man f in
      let b = Decomp.balance p in
      b >= 0. && b <= 1.
      && Decomp.shared_size p
         <= Bdd.size p.Decomp.g + Bdd.size p.Decomp.h
      && Decomp.max_size p <= Decomp.shared_size p)

(* ------------------------------------------------------------------ *)
(* The split search: cofactor sizes counted without building them     *)
(* ------------------------------------------------------------------ *)

(* The reference search: both cofactors of f built for every support
   variable, only to be sized, with the cost (max s1 s0, s1 + s0) folded
   in level order under a strict [<]. *)
let reference_split_var man f =
  match Bdd.support man f with
  | [] -> invalid_arg "reference_split_var: constant"
  | sup ->
      let cost v =
        let s1 = Bdd.size (Bdd.cofactor man f ~var:v true)
        and s0 = Bdd.size (Bdd.cofactor man f ~var:v false) in
        (max s1 s0, s1 + s0)
      in
      let best, _ =
        List.fold_left
          (fun (bv, bc) v ->
            let c = cost v in
            if c < bc then (v, c) else (bv, bc))
          (List.hd sup, cost (List.hd sup))
          (List.tl sup)
      in
      best

(* On every variable of [vars] and both phases, the counted size is the
   built cofactor's, and a limit one below it reports "over". *)
let counted_sizes_exact man f vars =
  List.for_all
    (fun var ->
      List.for_all
        (fun b ->
          let n = Bdd.size (Bdd.cofactor man f ~var b) in
          Decomp.cofactor_size man f ~var b = Some n
          && Decomp.cofactor_size ~limit:n man f ~var b = Some n
          && Decomp.cofactor_size ~limit:(n - 1) man f ~var b = None)
        [ true; false ])
    vars

(* a random function under a random variable order *)
let arb_ordered = QCheck.(pair arb (make (Tgen.permutation_gen nvars)))

let ordered (e, order) =
  let man, f, _ = Tgen.setup ~nvars e in
  match Bdd.reorder man ~order ~roots:[ f ] with
  | [ f ] -> (man, f)
  | _ -> assert false

let prop_cofactor_size =
  qtest "counted cofactor size = |cofactor|, over one below it" arb_ordered
    (fun eo ->
      let man, f = ordered eo in
      counted_sizes_exact man f (List.init nvars Fun.id))

let prop_split_var_reference =
  qtest "best_split_var = the build-both-cofactors search" arb_ordered
    (fun eo ->
      let man, f = ordered eo in
      QCheck.assume (not (Bdd.is_const f));
      Decomp.best_split_var man f = reference_split_var man f)

let test_split_golden_pool () =
  List.iter
    (fun (c, min_nodes) ->
      List.iter
        (fun { Pool.man; f; label; _ } ->
          Alcotest.(check bool)
            (label ^ ": counted sizes exact")
            true
            (counted_sizes_exact man f (Bdd.support man f));
          Alcotest.(check int)
            (label ^ ": the reference's variable")
            (reference_split_var man f)
            (Decomp.best_split_var man f))
        (Pool.entries_of_circuit ~min_nodes c))
    (Test_golden.circuits ())

let tests =
  ( "decomp",
    [
      Alcotest.test_case "cofactor constant" `Quick test_cofactor_constant;
      Alcotest.test_case "equation (1)" `Quick test_equation_1;
      Alcotest.test_case "best_split_var raises" `Quick
        test_best_split_var_raises;
      Alcotest.test_case "band points middle" `Quick test_band_points_middle;
      Alcotest.test_case "mcmillan cube" `Quick test_mcmillan_cube;
      Alcotest.test_case "mcmillan constants" `Quick test_mcmillan_const;
      prop_conj_cofactor;
      prop_disj_cofactor;
      prop_decompose_arbitrary_points;
      prop_band;
      prop_disjoint;
      prop_all_points;
      prop_mcmillan;
      prop_disj_band;
      prop_disj_disjoint;
      prop_balance_bounds;
      prop_cofactor_size;
      prop_split_var_reference;
      Alcotest.test_case "split search on the golden pool" `Quick
        test_split_golden_pool;
    ] )
