(* Generalized conjunctive decomposition by decomposition points (paper
   Section 3, Fig. 5).

   Factors are built bottom-up.  At a decomposition point with top variable
   v the factors are Equation (1)'s (v + f_e, v' + f_t); above a point the
   children's factors are combined either straight or crossed:

     g = v·g_t + v'·g_e ; h = v·h_t + v'·h_e     or
     g = v·g_t + v'·h_e ; h = v·h_t + v'·g_e

   Either way g·h = v·(g_t·h_t) + v'·(g_e·h_e) = f, so the product is
   preserved by induction.  The combination is chosen to balance the factor
   sizes, using a tree-size estimate (cheap, monotone with the actual size)
   rather than exact DAG sizes.

   All three passes run over a dense view of f (Dense): decomposition,
   Band's heights and Disjoint's top-down scan keep their per-node state in
   arrays by view index. *)

(* The tree-size estimate of [mk var hi lo] from its children's: 1 plus
   theirs, or the child's own when mk returns it. *)
let est_mk hi ehi lo elo = if Bdd.equal hi lo then ehi else 1. +. ehi +. elo

let decompose_view (v : Dense.t) ~is_point =
  let man = v.man in
  (* estimates of f's own nodes, the subgraphs a point keeps intact *)
  let tree = Array.make v.count 0. in
  for i = 2 to v.count - 1 do
    tree.(i) <- 1. +. tree.(v.hi.(i)) +. tree.(v.lo.(i))
  done;
  (* factors and their estimates, per node *)
  let g = Array.make v.count (Bdd.tt man) in
  let h = Array.make v.count (Bdd.tt man) in
  let eg = Array.make v.count 0. and eh = Array.make v.count 0. in
  let built = Array.make v.count false in
  g.(0) <- Bdd.ff man;
  built.(0) <- true;
  built.(1) <- true;
  let rec go i =
    if not built.(i) then begin
      let var = Bdd.topvar v.node.(i) in
      let hi = v.node.(v.hi.(i)) and lo = v.node.(v.lo.(i)) in
      if is_point i then begin
        let gi, hi' =
          ( Bdd.mk man ~var ~hi:(Bdd.tt man) ~lo,
            Bdd.mk man ~var ~hi ~lo:(Bdd.tt man) )
        in
        g.(i) <- gi;
        h.(i) <- hi';
        eg.(i) <- est_mk (Bdd.tt man) 0. lo tree.(v.lo.(i));
        eh.(i) <- est_mk hi tree.(v.hi.(i)) (Bdd.tt man) 0.
      end
      else begin
        let t = v.hi.(i) and e = v.lo.(i) in
        go t;
        go e;
        let gt = g.(t) and ht = h.(t) and ge = g.(e) and he = h.(e) in
        let straight =
          (Bdd.mk man ~var ~hi:gt ~lo:ge, Bdd.mk man ~var ~hi:ht ~lo:he)
        and crossed =
          (Bdd.mk man ~var ~hi:gt ~lo:he, Bdd.mk man ~var ~hi:ht ~lo:ge)
        in
        let est_straight =
          (est_mk gt eg.(t) ge eg.(e), est_mk ht eh.(t) he eh.(e))
        and est_crossed =
          (est_mk gt eg.(t) he eh.(e), est_mk ht eh.(t) ge eg.(e))
        in
        let skew (a, b) = abs_float (a -. b) in
        let (gi, hi'), (egi, ehi) =
          if skew est_straight <= skew est_crossed then (straight, est_straight)
          else (crossed, est_crossed)
        in
        g.(i) <- gi;
        h.(i) <- hi';
        eg.(i) <- egi;
        eh.(i) <- ehi
      end;
      built.(i) <- true
    end
  in
  go v.root;
  { Decomp.g = g.(v.root); h = h.(v.root) }

let decompose man ~is_point f =
  Dense.with_view man f (fun v ->
      decompose_view v ~is_point:(fun i -> is_point v.node.(i)))

(* A predicate on nodes, outliving the view: membership of the flagged
   nodes' uids, by binary search. *)
let flagged (v : Dense.t) flags =
  let ids = ref [] in
  for i = v.count - 1 downto 2 do
    if flags.(i) then ids := Bdd.id v.node.(i) :: !ids
  done;
  let ids = Array.of_list !ids in
  Array.sort compare ids;
  fun n ->
    let id = Bdd.id n in
    let rec search lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      if ids.(mid) = id then true
      else if ids.(mid) < id then search (mid + 1) hi
      else search lo mid
    in
    search 0 (Array.length ids)

(* ------------------------------------------------------------------ *)
(* Band selection                                                      *)
(* ------------------------------------------------------------------ *)

let band_flags ?(band = (0.35, 0.65)) (v : Dense.t) =
  let lo_frac, hi_frac = band in
  (* longest distance to a constant; children come first *)
  let height = Array.make v.count 0 in
  for i = 2 to v.count - 1 do
    height.(i) <- 1 + max height.(v.hi.(i)) height.(v.lo.(i))
  done;
  let top = float_of_int height.(v.root) in
  let lo = lo_frac *. top and hi = hi_frac *. top in
  Array.init v.count (fun i ->
      i >= 2
      &&
      let h = float_of_int height.(i) in
      h >= lo && h <= hi)

let band_points man ?band f =
  if Bdd.is_const f then fun _ -> false
  else Dense.with_view man f (fun v -> flagged v (band_flags ?band v))

let band man ?band:b f =
  Dense.with_view man f (fun v ->
      let flags = band_flags ?band:b v in
      decompose_view v ~is_point:(fun i -> flags.(i)))

(* ------------------------------------------------------------------ *)
(* Disjoint selection                                                  *)
(* ------------------------------------------------------------------ *)

let disjoint_flags ?(sample = 256) ?(max_sharing = 0.25) ?(min_balance = 0.4)
    (v : Dense.t) =
  (* scan candidates top-down; measuring sharing is one DAG traversal per
     candidate (quadratic in the worst case, hence the sample cap — the
     paper makes the same concession) *)
  let points = Array.make v.count false in
  let queued = Array.make v.count false in
  let q = Dense.queue v in
  let push i =
    if i >= 2 && not queued.(i) then begin
      queued.(i) <- true;
      Dense.push q i
    end
  in
  push v.root;
  let budget = ref sample in
  let rec scan () =
    if !budget > 0 then begin
      let n = Dense.pop q in
      if n >= 0 then begin
        let hi = v.hi.(n) and lo = v.lo.(n) in
        if hi >= 2 && lo >= 2 then begin
          decr budget;
          let sh = Bdd.size v.node.(hi) and sl = Bdd.size v.node.(lo) in
          let shared = Bdd.shared_size [ v.node.(hi); v.node.(lo) ] in
          let overlap =
            float_of_int (sh + sl - shared) /. float_of_int (max 1 (min sh sl))
          in
          let bal =
            float_of_int (min sh sl) /. float_of_int (max 1 (max sh sl))
          in
          if overlap <= max_sharing && bal >= min_balance then
            points.(n) <- true
        end;
        push hi;
        push lo;
        scan ()
      end
    end
  in
  scan ();
  points

let disjoint_points man ?sample ?max_sharing ?min_balance f =
  if Bdd.is_const f then fun _ -> false
  else
    Dense.with_view man f (fun v ->
        flagged v (disjoint_flags ?sample ?max_sharing ?min_balance v))

let disjoint man ?sample ?max_sharing ?min_balance f =
  Dense.with_view man f (fun v ->
      let flags = disjoint_flags ?sample ?max_sharing ?min_balance v in
      decompose_view v ~is_point:(fun i -> flags.(i)))

(* ------------------------------------------------------------------ *)
(* Disjunctive duals                                                   *)
(* ------------------------------------------------------------------ *)

(* The paper notes that disjunctive partitioning "is completely symmetric
   to the conjunctive method": f = g ∨ h is obtained from a conjunctive
   decomposition of ¬f by De Morgan. *)
let disjunctive_of man conj_method f =
  let { Decomp.g; h } = conj_method man (Bdd.bnot man f) in
  { Decomp.g = Bdd.bnot man g; h = Bdd.bnot man h }

let disj_band man ?band:b f = disjunctive_of man (fun m g -> band m ?band:b g) f

let disj_disjoint man ?sample ?max_sharing ?min_balance f =
  disjunctive_of man
    (fun m g -> disjoint m ?sample ?max_sharing ?min_balance g)
    f
