(* The marking pass that RUA and UA share (paper, Figs. 3–4), over a
   dense view of f.

   Every node of the view carries, in arrays by index: its count of live
   arcs (plus one for the root), whether a committed replacement has
   eliminated it, and the weight of the paths into it once it is queued.
   The dominated-node walk of Fig. 4 counts, per node, the arcs that come
   from dying nodes; those counts carry the number of the walk that wrote
   them, so a new walk starts from zero without clearing anything. *)

type t = {
  v : Dense.t;
  mutable refs : int array; (* live arcs into each node, +1 for the root *)
  mutable dead : bool array; (* eliminated by a committed replacement *)
  mutable pathw : float array; (* weight of the paths into a queued node *)
  mutable queued : bool array; (* has entered the marking queue *)
  mutable wcount : int array; (* arcs from dying nodes in walk [wstamp] *)
  mutable wstamp : int array;
  mutable walk : int;
  mutable elim : int array; (* the last walk's dominated nodes *)
  mutable nelim : int;
  queue : Dense.queue; (* the marking queue *)
  wqueue : Dense.queue; (* the walk's *)
}

let add_ref m i d = if i >= 2 then m.refs.(i) <- m.refs.(i) + d

let create (v : Dense.t) =
  let cap = Array.length v.node in
  let m =
    {
      v;
      refs = Array.make cap 0;
      dead = Array.make cap false;
      pathw = Array.make cap 0.;
      queued = Array.make cap false;
      wcount = Array.make cap 0;
      wstamp = Array.make cap 0;
      walk = 0;
      elim = Array.make 64 0;
      nelim = 0;
      queue = Dense.queue v;
      wqueue = Dense.queue v;
    }
  in
  for i = 2 to v.count - 1 do
    add_ref m v.hi.(i) 1;
    add_ref m v.lo.(i) 1
  done;
  add_ref m v.root 1;
  m

(* Append a node (whose children are in the view) with empty state. *)
let append m n =
  let i = Dense.append m.v n in
  if i = Array.length m.refs then begin
    m.refs <- Dense.grow m.refs i 0;
    m.dead <- Dense.grow m.dead i false;
    m.pathw <- Dense.grow m.pathw i 0.;
    m.queued <- Dense.grow m.queued i false;
    m.wcount <- Dense.grow m.wcount i 0;
    m.wstamp <- Dense.grow m.wstamp i 0
  end;
  i

(* Add [w] to the weight of the paths into [i], queueing it on first
   sight. *)
let add_path m i w =
  if i >= 2 then begin
    m.pathw.(i) <- m.pathw.(i) +. w;
    if not m.queued.(i) then begin
      m.queued.(i) <- true;
      Dense.push m.queue i
    end
  end

let bump m c =
  if c >= 2 then
    if m.wstamp.(c) = m.walk then m.wcount.(c) <- m.wcount.(c) + 1
    else begin
      m.wstamp.(c) <- m.walk;
      m.wcount.(c) <- 1;
      Dense.push m.wqueue c
    end

let eliminate m i =
  if m.nelim = Array.length m.elim then m.elim <- Dense.grow m.elim m.nelim 0;
  m.elim.(m.nelim) <- i;
  m.nelim <- m.nelim + 1

(* nodesSaved (Fig. 4): the nodes dominated by [n] — eliminated when its
   incoming arcs are redirected — left in [elim]; returns their number.
   A node dies when all of its live arcs come from dying nodes; [protect]
   (or -1) survives regardless, being the replacement's target. *)
let dominated m ~protect n =
  let v = m.v in
  m.walk <- m.walk + 1;
  m.nelim <- 0;
  eliminate m n;
  bump m v.hi.(n);
  bump m v.lo.(n);
  let rec drain () =
    let x = Dense.pop m.wqueue in
    if x >= 0 then begin
      if x <> protect && (not m.dead.(x)) && m.wcount.(x) = m.refs.(x)
      then begin
        eliminate m x;
        bump m v.hi.(x);
        bump m v.lo.(x)
      end;
      drain ()
    end
  in
  drain ();
  m.nelim

let eliminated m i =
  let rec go k = k < m.nelim && (m.elim.(k) = i || go (k + 1)) in
  go 0

(* Commit the last walk: its nodes die and stop referencing their
   children. *)
let kill m =
  let v = m.v in
  for k = 0 to m.nelim - 1 do
    let x = m.elim.(k) in
    m.dead.(x) <- true;
    add_ref m v.hi.(x) (-1);
    add_ref m v.lo.(x) (-1)
  done
