(** Out-of-core reachability: BFS with a tiered node store.

    [run] behaves like {!Bfs.run} while the state space fits under
    [hot_budget] nodes.  When the hot tier blows its budget, the engine
    migrates the reached set to a {!Store.Tiered} cold tier — mmap'd
    canonical level files on disk — and continues {e exactly}: images are
    still computed in RAM (frontier and transition relation stay hot, the
    levelized cut), but the accumulated reached set lives cold and is
    combined with each image through the streaming apply of
    {!Store.Stream}.  The certificate stays [Exact] as long as the
    fixpoint is proved, no matter how many migrations happened; the
    {!Resil.Degrade} ladder engages only when even the image step cannot
    fit, and {!Store.Tiered.Disk_full} ends the run soundly with the
    under-approximate reached set accumulated so far. *)

type result = {
  reached : Bdd.serialized;
      (** the final reached set, importable into any manager *)
  states : float;  (** reachable states (streaming count when cold) *)
  iterations : int;
  images : int;
  migrations : int;  (** hot-to-cold migrations of the reached set *)
  peak_hot_nodes : int;  (** unique-table high-water mark *)
  peak_total_nodes : int;  (** max over time of hot + cold nodes *)
  peak_cold_nodes : int;
  spilled_bytes : int;  (** bytes the store wrote to disk, cumulative *)
  cpu_seconds : float;
  exact : bool;
  degrade : Resil.Degrade.cert;
}

val pp : Format.formatter -> result -> unit

val run :
  ?max_iter:int ->
  ?time_limit:float ->
  ?store_dir:string ->
  ?mem_bound:int ->
  ?disk_budget_bytes:int ->
  hot_budget:int ->
  Trans.t ->
  result
(** [run ~hot_budget trans] explores [trans] keeping at most [hot_budget]
    hot nodes (enforced through {!Bdd.set_node_limit}).  [store_dir]
    hosts the cold and spill files (default: a fresh temp directory,
    removed on return); [mem_bound] caps the streaming queues;
    [disk_budget_bytes] bounds the cold tier.  [time_limit] (wall-clock
    seconds from the start of the run, as in {!Bfs.run}) stops the run
    with [exact = false].  The store is always closed — and its files
    deleted — before returning. *)
