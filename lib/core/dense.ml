(* A dense view of one BDD for the per-call passes of lib/core (DESIGN.md
   §Algorithms).

   The nodes of f are numbered once per call, children first: 0 and 1
   stand for the constants, then come the nodes of f in the order of
   Bdd.iter_nodes, so every node's children have smaller indices and f
   itself is the last of them.  Child indices and levels live in int
   arrays, so a pass reads arrays instead of probing a hash table per
   node, and keeps its own per-node state in arrays of the same indices.
   The node-to-index map is a leased Bdd.Scratch table, probed only for
   nodes a pass does not reach through the arrays: the node a
   replace-by-grandchild creates, which RUA appends. *)

type t = {
  man : Bdd.man;
  tbl : Bdd.Scratch.table; (* node -> index - 2 *)
  mutable node : Bdd.t array;
  mutable hi : int array;
  mutable lo : int array;
  mutable level : int array;
  mutable count : int; (* indices in use, the constants included *)
  mutable root : int;
}

let index v n =
  if Bdd.is_const n then if Bdd.is_true n then 1 else 0
  else
    let k = Bdd.Scratch.find v.tbl n in
    if k < 0 then -1 else k + 2

(* [a] with room for twice its [used] prefix *)
let grow a used fill =
  let b = Array.make (max 8 (2 * used)) fill in
  Array.blit a 0 b 0 used;
  b

let push_node v n ~hi ~lo =
  let i = v.count in
  if i = Array.length v.node then begin
    v.node <- grow v.node i v.node.(0);
    v.hi <- grow v.hi i 0;
    v.lo <- grow v.lo i 0;
    v.level <- grow v.level i 0
  end;
  let k = Bdd.Scratch.add v.tbl n in
  assert (k = i - 2);
  v.node.(i) <- n;
  v.hi.(i) <- hi;
  v.lo.(i) <- lo;
  v.level.(i) <- Bdd.level_of_var v.man (Bdd.topvar n);
  v.count <- i + 1;
  i

let append v n =
  push_node v n ~hi:(index v (Bdd.high n)) ~lo:(index v (Bdd.low n))

let with_view man f k =
  Bdd.Scratch.with_table (fun tbl ->
      let cap = 64 in
      let v =
        {
          man;
          tbl;
          node = Array.make cap (Bdd.ff man);
          hi = Array.make cap 0;
          lo = Array.make cap 0;
          level = Array.make cap 0;
          count = 2;
          root = 0;
        }
      in
      v.node.(1) <- Bdd.tt man;
      let rec go n =
        if Bdd.is_const n then index v n
        else
          let i = index v n in
          if i >= 0 then i
          else
            let hi = go (Bdd.high n) in
            let lo = go (Bdd.low n) in
            push_node v n ~hi ~lo
      in
      v.root <- go f;
      k v)

(* The nodes grouped by level, for passes that sweep f one level at a time:
   [(order, first)] lists the nodes at level [l] in index order as
   [order.(first.(l))] to [order.(first.(l + 1) - 1)]. *)
let by_level v =
  let levels = max 1 (Bdd.nvars v.man) in
  let first = Array.make (levels + 1) 0 in
  for i = 2 to v.count - 1 do
    let l = v.level.(i) in
    first.(l + 1) <- first.(l + 1) + 1
  done;
  for l = 1 to levels do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  let order = Array.make (v.count - 2) 0 in
  let next = Array.sub first 0 levels in
  for i = 2 to v.count - 1 do
    let l = v.level.(i) in
    order.(next.(l)) <- i;
    next.(l) <- next.(l) + 1
  done;
  (order, first)

(* Rebuild from the root down, memoized per index: [redirect i] is -1 to
   keep node [i] with its children rebuilt, or the index whose rebuild
   replaces it (0 for the constant 0). *)
let rebuild v ~redirect =
  let memo = Array.make v.count v.node.(0) in
  let built = Array.make v.count false in
  let rec build i =
    if i < 2 then v.node.(i)
    else if built.(i) then memo.(i)
    else begin
      let j = redirect i in
      let r =
        if j >= 0 then build j
        else
          Bdd.mk v.man ~var:(Bdd.topvar v.node.(i)) ~hi:(build v.hi.(i))
            ~lo:(build v.lo.(i))
      in
      memo.(i) <- r;
      built.(i) <- true;
      r
    end
  in
  build v.root

(* The by-level queue of the top-down passes (paper, Figs. 3–4): one int
   stack per level.  Pops come from the smallest non-empty level, last in
   first out within it.  Each caller enqueues a node at most once; pushes
   at or above the current pop level are allowed because a node's parents
   always lie strictly above it. *)
type queue = {
  v : t;
  stacks : int array array; (* level -> indices *)
  tops : int array;
  mutable cursor : int; (* no entry below this level *)
  mutable last : int; (* no entry above this level *)
}

let queue v =
  let levels = max 1 (Bdd.nvars v.man) in
  {
    v;
    stacks = Array.make levels [||];
    tops = Array.make levels 0;
    cursor = levels;
    last = -1;
  }

let push q i =
  let l = q.v.level.(i) in
  let top = q.tops.(l) in
  if top = Array.length q.stacks.(l) then
    q.stacks.(l) <- grow q.stacks.(l) top 0;
  q.stacks.(l).(top) <- i;
  q.tops.(l) <- top + 1;
  if l < q.cursor then q.cursor <- l;
  if l > q.last then q.last <- l

(* The next index, or -1 when the queue is empty. *)
let rec pop q =
  if q.cursor > q.last then begin
    q.cursor <- Array.length q.tops;
    q.last <- -1;
    -1
  end
  else
    let top = q.tops.(q.cursor) in
    if top = 0 then begin
      q.cursor <- q.cursor + 1;
      pop q
    end
    else begin
      q.tops.(q.cursor) <- top - 1;
      q.stacks.(q.cursor).(top - 1)
    end
