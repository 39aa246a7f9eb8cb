(** High-density reachability analysis (Ravi–Somenzi ICCAD'95), the
    traversal engine of the paper's Table 1.

    Breadth-first search is modified to expand, at each iteration, only a
    {e dense subset} of the states whose successors have not been computed
    yet; the subset is extracted with one of the approximation algorithms
    of Section 2.  States left behind stay in the unexpanded set and are
    reconsidered later, so the traversal is a mixed depth-first /
    breadth-first exploration that terminates with the exact reachable set.

    Additionally, intermediate products of image computation are subsetted
    whenever they exceed a node limit (the paper's "PImg"); in that case a
    final closure check (one exact image of the result) certifies
    exactness, re-seeding the traversal if states were missed. *)

type params = {
  meth : Approx.meth;  (** subset extraction algorithm *)
  threshold : int;  (** size target handed to the approximation *)
  quality : float;  (** RUA quality factor *)
  pimg : (int * int) option;
      (** partial-image subsetting: (trigger node limit, threshold handed
          to the approximation), the two numbers of Table 1's PImg column *)
}

val default : params
(** RUA, threshold 0, quality 1.0, no partial-image subsetting. *)

val run :
  ?max_iter:int ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?gc_start:int ->
  ?sift:bool ->
  ?params:params ->
  ?checkpoint:Resil.Checkpoint.policy ->
  ?resume:Resil.Checkpoint.reach_state ->
  ?pool:Tpool.t ->
  Trans.t ->
  Traversal.result
(** High-density traversal to the exact fixpoint.  [time_limit]
    (wall-clock seconds from the start of the run), [node_limit],
    [gc_start], [sift], [checkpoint], [resume] and [pool] as in
    {!Bfs.run}; an image step that blows the node budget even after a
    collection walks the {!Resil.Degrade} ladder (with [params.meth] as
    its under-approximation method) before the engine concedes
    [exact = false]. *)
