(* Output checks, run outside the timed spans.  Each one answers from a
   different mechanism than the code under test: Bdd.leq / band+equal for
   the containment and recomposition contracts, and Bdd.eval walks over
   sampled assignments, which read the diagrams node by node and never
   touch apply or the computed caches. *)

let samples = 16

(* A satisfying assignment of [r] drawn by a random root-to-1 walk;
   variables off the path get random values.  [None] when [r] is 0. *)
let sample_sat rng man r =
  if Bdd.is_false r then None
  else begin
    let asg = Array.init (Bdd.nvars man) (fun _ -> Random.State.bool rng) in
    let rec walk n =
      match Bdd.view n with
      | Bdd.True | Bdd.False -> ()
      | Bdd.Node { var; hi; lo } ->
          let b =
            if Bdd.is_false hi then false
            else if Bdd.is_false lo then true
            else Random.State.bool rng
          in
          asg.(var) <- b;
          walk (if b then hi else lo)
    in
    walk r;
    Some asg
  end

let uniform rng man =
  Array.init (Bdd.nvars man) (fun _ -> Random.State.bool rng)

let eval man f asg = Bdd.eval man f (fun v -> asg.(v))

(* [under ⊆ f] by the kernel's containment test. *)
let subset_leq man ~f under = Bdd.leq man under f

(* [under ⊆ f] on sampled members of [under]. *)
let subset_eval rng man ~f under =
  let ok = ref true in
  for _ = 1 to samples do
    match sample_sat rng man under with
    | Some asg -> if not (eval man under asg && eval man f asg) then ok := false
    | None -> ()
  done;
  !ok

let subset rng man ~f under =
  subset_leq man ~f under && subset_eval rng man ~f under

(* [g ∧ h = f] by rebuilding the conjunction. *)
let recompose_equal man ~f (p : Decomp.pair) =
  Bdd.equal (Bdd.band man p.g p.h) f

(* [g ∧ h = f] pointwise on uniform assignments, members of [f], and
   members of [g] (where an extra minterm of the product would show). *)
let recompose_eval rng man ~f (p : Decomp.pair) =
  let agrees asg = eval man f asg = (eval man p.g asg && eval man p.h asg) in
  let ok = ref true in
  for _ = 1 to samples do
    if not (agrees (uniform rng man)) then ok := false;
    List.iter
      (fun src ->
        match sample_sat rng man src with
        | Some asg -> if not (agrees asg) then ok := false
        | None -> ())
      [ f; p.g ]
  done;
  !ok

let recompose rng man ~f p =
  recompose_equal man ~f p && recompose_eval rng man ~f p

(* Two reached sets from different managers: imported side by side into a
   fresh manager and compared there (same variable numbering). *)
let same_set (a : Bdd.serialized) (b : Bdd.serialized) =
  let man = Bdd.create () in
  Bdd.equal (Bdd.import man a) (Bdd.import man b)

(* The reached set of [reach-par] must be bit-identical to the sequential
   one, not only the same function. *)
let bit_identical a b =
  String.equal (Bdd.serialized_to_string a) (Bdd.serialized_to_string b)

(* A traversal's state count against the explicit-state one, if any. *)
let states_ok ~expected states =
  match expected with None -> true | Some n -> Float.equal n states

(* --- planted wrong answers ------------------------------------------- *)

(* Each checker must reject a known-wrong answer, so that no check can
   pass vacuously.  Returns the names of the checkers that missed it. *)
let planted ~rng =
  let man = Bdd.create () in
  let v i = Bdd.ithvar man i in
  let f =
    Bdd.bor man
      (Bdd.band man (v 0) (Bdd.band man (v 1) (v 2)))
      (Bdd.band man (Bdd.bnot man (v 3)) (Bdd.bxor man (v 4) (v 5)))
  in
  let under = Remap.approximate man f in
  let too_big = Bdd.bor man under (Bdd.bnot man f) in
  let pair = Decomp.conj_cofactor man f in
  (* plants every sampled assignment exposes, so the sampled checks
     catch them whatever the seed *)
  let outside = Bdd.bnot man f in
  let wrong_pair = { Decomp.g = Bdd.tt man; h = Bdd.tt man } in
  let other = Bdd.bxor man f (Bdd.band man (v 0) (v 5)) in
  let ser g = Bdd.export man g in
  let misses =
    [
      ("approx: the genuine RUA result passes", not (subset rng man ~f under));
      ("approx: leq subset check", subset_leq man ~f too_big);
      ("approx: eval subset check", subset_eval rng man ~f outside);
      ( "decomp: the genuine cofactor pair passes",
        not (recompose rng man ~f pair) );
      ("decomp: band+equal recomposition", recompose_equal man ~f wrong_pair);
      ("decomp: eval recomposition", recompose_eval rng man ~f wrong_pair);
      ("reach: cross-engine set equality", same_set (ser f) (ser other));
      ("reach: same set passes", not (same_set (ser f) (ser f)));
      ("reach: state count", states_ok ~expected:(Some 10.0) 11.0);
      ( "reach: same count passes",
        not (states_ok ~expected:(Some 10.0) 10.0) );
      ("reach-par: bit identity", bit_identical (ser f) (ser other));
    ]
  in
  List.filter_map
    (fun (name, missed) -> if missed then Some name else None)
    misses
