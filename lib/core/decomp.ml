type pair = { g : Bdd.t; h : Bdd.t }

let shared_size { g; h } = Bdd.shared_size [ g; h ]
let max_size { g; h } = max (Bdd.size g) (Bdd.size h)

let balance { g; h } =
  let a = float_of_int (Bdd.size g) and b = float_of_int (Bdd.size h) in
  if a = 0. && b = 0. then 1. else min a b /. max a b

let verify_conj man f { g; h } = Bdd.equal f (Bdd.band man g h)
let verify_disj man f { g; h } = Bdd.equal f (Bdd.bor man g h)

(* The split search (paper Section 4's cost, after [Cabodi et al. 96] /
   [Narayan et al. 97]): the support variable whose larger cofactor is
   smallest, then the smaller sum of both cofactors, then the first in
   level order.  The cofactor sizes are counted on f's dense view without
   building the cofactors, so the search makes no node, probes no cache
   and allocates nothing per node: under a node limit or a deadline tick
   (serve's per-request limits), neither fires during the search, only
   while the caller builds the pair.

   For the variable at level [l] and phase [b], a node below [l] is its
   own image in f_b and a node at [l] takes the image of its b-child.
   The nodes above [l] are hash-consed again bottom-up, one level at a
   time, in an int table keyed by the images of their children (hi', lo')
   and emptied per level by a stamp: a node with hi' = lo' forwards its
   child's image, the first node of a level with a given key is its own
   image, and a later one takes the first one's.  |f_b| is the number of
   such distinct rebuilt nodes (all reachable from f_b's root) plus the
   nodes below [l] that a stamped walk reaches from them.  A count stops
   as soon as it passes its limit. *)

type counter = {
  v : Dense.t;
  order : int array; (* Dense.by_level *)
  first : int array;
  image : int array; (* index -> index of its image in the cofactor *)
  seen : int array; (* index -> stamp of the last walk that counted it *)
  mutable walk : int;
  stack : int array;
  mutable size : int;
  keys : int array; (* the per-level table: hi' * count + lo' *)
  reps : int array; (* the first node of the level with that key *)
  stamps : int array; (* the level sweep that wrote the slot *)
  shift : int; (* 63 - log2 (length keys) *)
  mutable sweep : int;
}

(* The images start as the identity.  A count at level [l] writes the
   images of levels [l] and above only, so counts made in increasing level
   order always find the nodes below their level at their own index. *)
let counter v =
  let order, first = Dense.by_level v in
  let width = ref 1 in
  for l = 0 to Array.length first - 2 do
    width := Int.max !width (first.(l + 1) - first.(l))
  done;
  let bits = ref 1 in
  while 1 lsl !bits < 2 * !width do
    incr bits
  done;
  let n = v.Dense.count in
  {
    v;
    order;
    first;
    image = Array.init n Fun.id;
    seen = Array.make n 0;
    walk = 0;
    stack = Array.make n 0;
    size = 0;
    keys = Array.make (1 lsl !bits) 0;
    reps = Array.make (1 lsl !bits) 0;
    stamps = Array.make (1 lsl !bits) 0;
    shift = 63 - !bits;
    sweep = 0;
  }

(* The representative of [key] in the current level sweep, [i] if it is
   the first node with that key. *)
let rec intern c key i s =
  if c.stamps.(s) <> c.sweep then begin
    c.stamps.(s) <- c.sweep;
    c.keys.(s) <- key;
    c.reps.(s) <- i;
    i
  end
  else if c.keys.(s) = key then c.reps.(s)
  else intern c key i ((s + 1) land (Array.length c.keys - 1))

(* Push [k] on the walk's stack unless it is a constant or counted. *)
let push c k top =
  if k >= 2 && c.seen.(k) <> c.walk then begin
    c.seen.(k) <- c.walk;
    c.stack.(top) <- k;
    top + 1
  end
  else top

(* Count the nodes below level [l] that the walk has not counted yet and
   that are reachable from [i], stopping once the size passes [limit]. *)
let reach c l limit i =
  let v = c.v in
  if i >= 2 && v.Dense.level.(i) > l then begin
    let top = ref (push c i 0) in
    while !top > 0 && c.size <= limit do
      decr top;
      let j = c.stack.(!top) in
      c.size <- c.size + 1;
      top := push c v.Dense.lo.(j) (push c v.Dense.hi.(j) !top)
    done
  end

(* |f_b| for the variable at level [l], or a number above [limit] once
   the count passes it. *)
let count c l b limit =
  let v = c.v in
  let hi = v.Dense.hi and lo = v.Dense.lo and image = c.image in
  for k = c.first.(l) to c.first.(l + 1) - 1 do
    let i = c.order.(k) in
    image.(i) <- (if b then hi.(i) else lo.(i))
  done;
  c.walk <- c.walk + 1;
  c.size <- 0;
  let m = ref (l - 1) in
  while !m >= 0 && c.size <= limit do
    c.sweep <- c.sweep + 1;
    let k = ref c.first.(!m) in
    while !k < c.first.(!m + 1) && c.size <= limit do
      let i = c.order.(!k) in
      let h = image.(hi.(i)) and o = image.(lo.(i)) in
      if h = o then image.(i) <- h
      else begin
        let key = (h * v.Dense.count) + o in
        let r = intern c key i ((key * 0x1e3779b97f4a7c15) lsr c.shift) in
        image.(i) <- r;
        if r = i then begin
          c.size <- c.size + 1;
          reach c l limit h;
          reach c l limit o
        end
      end;
      incr k
    done;
    decr m
  done;
  (* the root's image lies below [l] when nothing above it survives *)
  if c.size <= limit then reach c l limit image.(v.Dense.root);
  c.size

let cofactor_size ?(limit = max_int) man f ~var b =
  Dense.with_view man f (fun v ->
      let n = count (counter v) (Bdd.level_of_var man var) b limit in
      if n > limit then None else Some n)

(* The fold over the support in level order keeps the first variable of
   the smallest cost (max s1 s0, s1 + s0).  A variable with a cofactor
   above the best max so far can neither win nor tie, so its counts stop
   there. *)
let best_split_var man f =
  if Bdd.is_const f then invalid_arg "Decomp.best_split_var: constant";
  Dense.with_view man f (fun v ->
      let c = counter v in
      let best = ref 0 and best_max = ref max_int and best_sum = ref max_int in
      for l = 0 to Array.length c.first - 2 do
        if c.first.(l) < c.first.(l + 1) then begin
          let s1 = count c l true !best_max in
          if s1 <= !best_max then begin
            let s0 = count c l false !best_max in
            let m = Int.max s1 s0 and s = s1 + s0 in
            if m < !best_max || (m = !best_max && s < !best_sum) then begin
              best := l;
              best_max := m;
              best_sum := s
            end
          end
        end
      done;
      Bdd.var_at_level man !best)

(* Equation (1): f = g·h with g = x + f_x' and h = x' + f_x. *)
let conj_cofactor_at man f v =
  let fx = Bdd.cofactor man f ~var:v true
  and fx' = Bdd.cofactor man f ~var:v false in
  let x = Bdd.ithvar man v and x' = Bdd.nithvar man v in
  { g = Bdd.bor man x fx'; h = Bdd.bor man x' fx }

(* The symmetric disjunctive split: f = x·f_x + x'·f_x'. *)
let disj_cofactor_at man f v =
  let fx = Bdd.cofactor man f ~var:v true
  and fx' = Bdd.cofactor man f ~var:v false in
  let x = Bdd.ithvar man v and x' = Bdd.nithvar man v in
  { g = Bdd.band man x fx; h = Bdd.band man x' fx' }

let conj_cofactor man f =
  if Bdd.is_const f then { g = f; h = Bdd.tt man }
  else conj_cofactor_at man f (best_split_var man f)

let disj_cofactor man f =
  if Bdd.is_const f then { g = f; h = Bdd.ff man }
  else disj_cofactor_at man f (best_split_var man f)
