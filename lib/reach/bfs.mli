(** Exact breadth-first reachability analysis — the baseline the paper's
    Table 1 compares high-density traversal against. *)

val run :
  ?max_iter:int ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?gc_start:int ->
  ?sift:bool ->
  ?degrade:Approx.meth ->
  ?checkpoint:Resil.Checkpoint.policy ->
  ?resume:Resil.Checkpoint.reach_state ->
  ?pool:Tpool.t ->
  Trans.t ->
  Traversal.result
(** Least fixpoint of [λR. init ∨ Img(R)] by frontier iteration.
    [time_limit] (wall-clock seconds from the start of the run) aborts
    the run, reporting [exact = false] — the analogue of the paper's
    "> 2 weeks" entry.  It counts wall time, not the process CPU time of
    [cpu_seconds], which sums over every domain and so would cut a run
    short whenever sibling domains are busy.  [node_limit] is the
    analogue of the paper's 256 MB memory ceiling (s1269 needed a 1 GB
    machine; see DESIGN.md on emulating 1998 resource budgets) — but
    instead of aborting, an image step that still blows the ceiling after
    a collection walks the {!Resil.Degrade} ladder: the frontier is
    restrict-minimized, then under-approximated with [degrade] (default
    [HB]), and the states left behind return to the frontier, so the
    search continues on a sound subset and the result's [degrade] field
    records what happened.  Only when even the ladder's last rung cannot
    complete does the run stop, reporting [exact = false] with
    [exhausted = true].  [sift] (default false) enables dynamic variable
    reordering; it invalidates any BDD of the manager not owned by the
    traversal, including the compiled circuit functions.  [checkpoint]
    atomically snapshots the traversal every [every] iterations;
    [resume] restarts from a snapshot loaded with
    {!Resil.Checkpoint.load_reach}.  [pool] forks the image and frontier
    bookkeeping across the given pool's domains (the transition system's
    manager must be [Bdd.create ~shared:true]); results are bit-identical
    to the sequential run. *)
