type stats = {
  replacements : int;
  remaps : int;
  grandchild : int;
  zeroes : int;
  estimated_size : int;
  estimated_minterm_fraction : float;
}

(* Replacement status of a node (paper 2.1.1), over indices of the dense
   view.  [Grandchild] keeps the shared grandchild on one side and 0 on
   the other. *)
type status =
  | Keep
  | Zero
  | Child of int
  | Grandchild of { var : int; hi : int; lo : int }

type info = {
  m : Marking.t;
  mutable replaced : (int * status) list; (* committed, latest first *)
  mutable minterms : float; (* running result weight (exact) *)
  mutable size : int; (* running upper bound on |result| *)
}

(* findReplacement: first applicable of remap, replace-by-grandchild,
   replace-by-0. *)
let find_replacement (v : Dense.t) n =
  let man = v.man in
  let hi = v.hi.(n) and lo = v.lo.(n) in
  if Bdd.leq man v.node.(lo) v.node.(hi) then Child lo
  else if Bdd.leq man v.node.(hi) v.node.(lo) then Child hi
  else if hi >= 2 && lo >= 2 && v.level.(hi) = v.level.(lo) then
    let var = Bdd.topvar v.node.(hi) in
    if v.hi.(hi) = v.hi.(lo) && v.hi.(hi) <> 0 then
      Grandchild { var; hi = v.hi.(hi); lo = 0 }
    else if v.lo.(hi) = v.lo.(lo) && v.lo.(hi) <> 0 then
      Grandchild { var; hi = 0; lo = v.lo.(hi) }
    else Zero
  else Zero

let replacement_weight (v : Dense.t) = function
  | Keep -> invalid_arg "replacement_weight"
  | Zero -> 0.
  | Child c -> Bdd.weight v.man v.node.(c)
  | Grandchild { hi; lo; _ } ->
      0.5 *. (Bdd.weight v.man v.node.(hi) +. Bdd.weight v.man v.node.(lo))

(* The node the replacement redirects to, which must survive even when all
   of its references come from eliminated nodes. *)
let protected_index = function
  | Keep | Zero -> -1
  | Child c -> if c < 2 then -1 else c
  | Grandchild { hi; lo; _ } ->
      let g = if hi < 2 then lo else hi in
      if g < 2 then -1 else g

let grandchild_node (v : Dense.t) ~var ~hi ~lo =
  Bdd.mk v.man ~var ~hi:v.node.(hi) ~lo:v.node.(lo)

(* nodesSaved (Fig. 4): the lower bound on the node savings of replacing
   [n] (its dominated nodes are left in the walk's buffer), and the
   (possibly new) grandchild node. *)
let nodes_saved info n repl =
  let m = info.m in
  let saved = Marking.dominated m ~protect:(protected_index repl) n in
  (* a replace-by-grandchild may add one node that is not part of f *)
  match repl with
  | Grandchild { var; hi; lo } ->
      let nd = grandchild_node m.v ~var ~hi ~lo in
      let j = Dense.index m.v nd in
      let fresh = j < 0 || m.dead.(j) || Marking.eliminated m j in
      (saved - if fresh then 1 else 0), Some nd
  | Keep | Zero | Child _ -> (saved, None)

(* updateInfo: commit an accepted replacement — mark the eliminated nodes
   dead, rewire the reference counts, update the running totals. *)
let commit info n repl ~lost ~saved ~nd =
  let m = info.m in
  let nrefs = m.refs.(n) in
  Marking.kill m;
  (match repl with
  | Keep -> assert false
  | Zero -> ()
  | Child c -> Marking.add_ref m c nrefs
  | Grandchild { hi; lo; _ } ->
      let j = Dense.index m.v (Option.get nd) in
      if j >= 0 && not m.dead.(j) then Marking.add_ref m j nrefs
      else begin
        (* fresh (or resurrected) node: it contributes its own arcs *)
        let j = if j < 0 then Marking.append m (Option.get nd) else j in
        m.dead.(j) <- false;
        m.refs.(j) <- nrefs;
        Marking.add_ref m hi 1;
        Marking.add_ref m lo 1
      end);
  info.replaced <- (n, repl) :: info.replaced;
  info.minterms <- info.minterms -. lost;
  info.size <- info.size - saved

(* Second pass (Fig. 3). *)
let mark_nodes info ~threshold ~quality =
  let m = info.m in
  let v = m.v in
  let man = v.man in
  Marking.add_path m v.root 1.0;
  let rec loop () =
    if info.size <= threshold then ()
    else
      let n = Dense.pop m.queue in
      if n >= 0 then begin
        (* every enqueued node is a child of a live kept node or the
           target of a redirect, and neither can be eliminated later *)
        assert (not m.dead.(n));
        let p = m.pathw.(n) in
        let repl = find_replacement v n in
        let lost =
          p *. (Bdd.weight man v.node.(n) -. replacement_weight v repl)
        in
        let saved, nd = nodes_saved info n repl in
        let w = info.minterms and s = float_of_int info.size in
        let w' = w -. lost and s' = float_of_int (info.size - saved) in
        let ratio =
          if s' < 1. || w <= 0. then neg_infinity else w' /. s' /. (w /. s)
        in
        if ratio > quality then begin
          commit info n repl ~lost ~saved ~nd;
          (* paths into [n] now flow into the replacement: enqueue it
             with the full weight (the paper's enqueueChildren with the
             replacement) so that its own processing sees correct path
             fractions even when it is an existing node of f *)
          match repl with
          | Keep -> assert false
          | Zero -> ()
          | Child c -> Marking.add_path m c p
          | Grandchild _ -> Marking.add_path m (Dense.index v (Option.get nd)) p
        end
        else begin
          Marking.add_path m v.hi.(n) (p /. 2.);
          Marking.add_path m v.lo.(n) (p /. 2.)
        end;
        loop ()
      end
  in
  loop ()

(* Third pass: rebuild applying the recorded statuses. *)
let build_result info =
  let v = info.m.v in
  let status = Array.make v.count Keep in
  List.iter (fun (i, s) -> status.(i) <- s) info.replaced;
  Dense.rebuild v ~redirect:(fun i ->
      match status.(i) with
      | Keep -> -1
      | Zero -> 0
      | Child c -> c
      | Grandchild { var; hi; lo } ->
          (* the replacement node may itself carry a replacement status
             (it was enqueued by markNodes), so route the rebuild through
             it rather than constructing directly *)
          Dense.index v (grandchild_node v ~var ~hi ~lo))

let approximate_with_stats man ?(threshold = 0) ?(quality = 1.0) f =
  if Bdd.is_const f then
    ( f,
      {
        replacements = 0;
        remaps = 0;
        grandchild = 0;
        zeroes = 0;
        estimated_size = 0;
        estimated_minterm_fraction = Bdd.weight man f;
      } )
  else
    Dense.with_view man f (fun v ->
        (* first pass (Fig. 2): minterm weights are delegated to the
           manager's per-node cache; the view holds the reference counts *)
        let minterms = Bdd.weight man f in
        let info =
          { m = Marking.create v; replaced = []; minterms; size = v.count - 2 }
        in
        mark_nodes info ~threshold ~quality;
        let result = build_result info in
        let count pred =
          List.length (List.filter (fun (_, s) -> pred s) info.replaced)
        in
        let stats =
          {
            replacements = List.length info.replaced;
            remaps = count (function Child _ -> true | _ -> false);
            grandchild = count (function Grandchild _ -> true | _ -> false);
            zeroes = count (function Zero -> true | _ -> false);
            estimated_size = info.size;
            estimated_minterm_fraction = info.minterms;
          }
        in
        (result, stats))

let approximate man ?threshold ?quality f =
  fst (approximate_with_stats man ?threshold ?quality f)
