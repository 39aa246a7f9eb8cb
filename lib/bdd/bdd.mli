(** Reduced Ordered Binary Decision Diagrams.

    A from-scratch ROBDD package in the style of CUDD [Somenzi 98], built as
    the substrate for the DAC'98 approximation and decomposition algorithms.
    Nodes are hash-consed per manager, so two BDDs built in the same manager
    represent the same function if and only if they are physically equal.

    Unlike CUDD this package does not use complement arcs: every node denotes
    a positive function.  This removes the complementation-parity
    restrictions of the paper's Section 2.1.3 at the cost of an O(|f|)
    negation (see DESIGN.md).

    All operations take the manager explicitly.  Mixing BDDs from different
    managers is a programming error and is not detected. *)

type man
(** A BDD manager: unique table, operation caches, and the variable order. *)

type t
(** A BDD rooted at some node of a manager. *)

(** The shape of a BDD root, for algorithms that traverse the DAG. *)
type view =
  | False
  | True
  | Node of { var : int; hi : t; lo : t }
      (** [Node {var; hi; lo}] denotes [var·hi + var'·lo]; [hi] and [lo] are
          distinct and their top variables lie strictly below [var] in the
          order. *)

(** {1 Managers and variables} *)

val create : ?nvars:int -> ?shared:bool -> unit -> man
(** [create ()] returns a fresh manager.  [nvars] pre-declares that many
    variables (they can also be added on demand with {!ithvar}).

    [~shared:true] arms the manager for concurrent use from several
    domains (DESIGN.md §Parallel kernel): the unique table is striped
    with per-stripe insert locks, probes stay lock-free, and the lossy
    operation caches tolerate races (they may lose entries, never return
    a wrong one).  Hash-consing canonicity — physical equality iff
    functional equality — holds across domains.  The default private
    manager skips all locking and must stay confined to one domain at a
    time.  {!gc}, {!reorder}, {!clear_caches} and {!set_cache_limit}
    require quiescence even on a shared manager: no concurrent operation
    may be running during the call.

    The first [create] of the process also tunes the OCaml GC for BDD
    workloads (larger minor heap, higher [space_overhead]; see DESIGN.md
    §Kernel).  Existing settings are never lowered; set the environment
    variable [BDD_GC_TUNE=0] to disable, or call [Gc.set] afterwards to
    override. *)

val is_shared : man -> bool
(** Whether the manager was created with [~shared:true]. *)

val nvars : man -> int
(** Number of declared variables. *)

val new_var : man -> t
(** Declare a fresh variable at the bottom of the order and return its
    positive literal. *)

val ithvar : man -> int -> t
(** [ithvar man i] is the positive literal of variable [i], declaring
    variables [nvars man .. i] if needed. *)

val nithvar : man -> int -> t
(** Negative literal of variable [i]. *)

val level_of_var : man -> int -> int
(** Current position of a variable in the order (0 = top). *)

val var_at_level : man -> int -> int
(** Inverse of {!level_of_var}. *)

val order : man -> int array
(** [order man] is the current order as a level-to-variable array (a copy). *)

(** {1 Structure} *)

val tt : man -> t
val ff : man -> t

val id : t -> int
(** Unique id of the root node within its manager.  [ff] has id 0, [tt] id
    1.  Ids are stable for the lifetime of the manager (they survive
    {!gc} but reordering creates new nodes with new ids). *)

val view : t -> view
val equal : t -> t -> bool

val is_const : t -> bool
val is_true : t -> bool
val is_false : t -> bool

val topvar : t -> int
(** Top variable of a non-constant BDD.  @raise Invalid_argument on
    constants. *)

val high : t -> t
(** Then-child. @raise Invalid_argument on constants. *)

val low : t -> t
(** Else-child. @raise Invalid_argument on constants. *)

val mk : man -> var:int -> hi:t -> lo:t -> t
(** Checked hash-consed constructor: returns the node [var·hi + var'·lo].
    Returns [hi] when [hi == lo].  @raise Invalid_argument if the top
    variable of [hi] or [lo] is not strictly below [var] in the order. *)

(** {1 Boolean connectives} *)

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bnand : man -> t -> t -> t
val bnor : man -> t -> t -> t
val biff : man -> t -> t -> t
val bimp : man -> t -> t -> t
(** [bimp man f g] is [¬f ∨ g]. *)

val bdiff : man -> t -> t -> t
(** [bdiff man f g] is [f ∧ ¬g]. *)

val ite : man -> t -> t -> t -> t
(** [ite man f g h] is [f·g + f'·h]. *)

val conj : man -> t list -> t
(** Conjunction of a list (tt for []). *)

val disj : man -> t list -> t
(** Disjunction of a list (ff for []). *)

val leq : man -> t -> t -> bool
(** [leq man f g] tests functional containment [f ≤ g] (implication),
    without building the implication BDD. *)

(** {1 Parallel operations}

    Fork/join variants of the core recursions, executing on a {!Tpool.t}
    over a [~shared:true] manager.  Each forks the two cofactor branches
    onto the pool down to a depth cutoff of [log2(workers) + 4] and runs
    the plain sequential recursion (same caches, same unique table)
    below it, so results are {e bit-identical} to the sequential kernel:
    hash-consing canonicity means the schedule can only decide which
    domain publishes a node first, never which node represents a
    function.

    With a pool of size 1 these are exactly the sequential operations
    and work on any manager.  With a larger pool they
    @raise Invalid_argument unless the manager is shared. *)

val par_apply : Tpool.t -> man -> [ `And | `Or | `Xor ] -> t -> t -> t
(** Parallel {!band} / {!bor} / {!bxor}. *)

val par_ite : Tpool.t -> man -> t -> t -> t -> t
(** Parallel {!ite}. *)

val par_exist_and : Tpool.t -> man -> vars:t -> t -> t -> t
(** Parallel {!and_exists} (relational product), the workhorse of image
    computation. *)

type contention = {
  cas_retries : int;
      (** unique-table publish races lost: the re-probe under a stripe
          lock found the node another domain had just created *)
  stripe_waits : int;
      (** stripe-lock acquisitions that found the lock already held *)
  ut_locks : int;  (** total stripe-lock acquisitions on the insert path *)
  cache_races : int;
      (** computed-cache overwrites that re-stored the very same key —
          two domains solved the same subproblem concurrently *)
  cache_inserts : int;  (** total computed-cache stores *)
  cache_probes : int;  (** total computed-cache probes (hits + misses) *)
}
(** Contention counters of the parallel kernel, all cumulative and
    monotone.  [cache_races <= cache_inserts] and
    [stripe_waits <= ut_locks >= cas_retries] always hold; on a private
    manager everything except [cache_inserts] and [cache_probes] stays
    0.  Exported to metrics as the [kernel.*] counters by
    [Obs.Kernel.attach]. *)

val contention : man -> contention

val intersects : man -> t -> t -> bool
(** [intersects man f g] tests [f ∧ g ≠ 0] without building the
    conjunction (with early exit on the first satisfying path). *)

(** {1 Cofactors, composition, quantification} *)

val cofactor : man -> t -> var:int -> bool -> t
(** Shannon cofactor with respect to a literal. *)

val compose : man -> t -> var:int -> t -> t
(** [compose man f ~var g] substitutes [g] for [var] in [f]. *)

val vector_compose : man -> t -> (int -> t option) -> t
(** Simultaneous substitution: every variable [v] with [subst v = Some g]
    is replaced by [g] in one pass. *)

val cube : man -> int list -> t
(** Positive cube (conjunction) of a set of variables. *)

val cube_of_literals : man -> (int * bool) list -> t
(** Cube of literals: [(v, true)] contributes [v], [(v, false)] [v']. *)

val exists : man -> vars:t -> t -> t
(** [exists man ~vars f] existentially quantifies the variables of the
    positive cube [vars] out of [f]. *)

val forall : man -> vars:t -> t -> t

val and_exists : man -> vars:t -> t -> t -> t
(** Relational product: [∃ vars. f ∧ g] without building [f ∧ g]. *)

val constrain : man -> t -> t -> t
(** Coudert–Madre generalized cofactor ("constrain"): [constrain man f c]
    agrees with [f] on [c] and satisfies
    [f ∧ c = c ∧ constrain man f c].  [c] must not be [ff]. *)

val restrict : man -> t -> t -> t
(** Coudert–Madre sibling-substitution minimization ("restrict"):
    [restrict man f c] agrees with [f] wherever [c] holds and is
    heuristically small.  [c] must not be [ff]. *)

val squeeze : man -> lower:t -> upper:t -> t
(** Interval minimization: returns some [g] with [lower ≤ g ≤ upper],
    heuristically small ([lower ≤ upper] required). *)

val permute : man -> t -> (int -> int) -> t
(** [permute man f p] renames every variable [v] of [f] to [p v].  The
    renaming must be injective on the support of [f]. *)

(** {1 Counting and analysis} *)

val size : t -> int
(** Number of internal (non-constant) nodes of the DAG, as in the paper's
    [|f|]. *)

val shared_size : t list -> int
(** Internal nodes of the union of the DAGs. *)

val weight : man -> t -> float
(** Fraction of variable assignments (over all declared variables) that
    satisfy [f]; in [0, 1].  Cached per node. *)

val count_minterms : man -> t -> nvars:int -> float
(** The paper's [||f||]: number of minterms of [f] viewed as a function of
    [nvars] variables. *)

val density : man -> t -> nvars:int -> float
(** [||f|| / |f|], the paper's δ(f).  Infinite for [tt], 0 for [ff]. *)

val count_paths : man -> t -> float
(** Number of paths from the root to either constant. *)

val support : man -> t -> int list
(** Variables [f] depends on, sorted by current level. *)

val support_cube : man -> t -> t
(** Support as a positive cube. *)

val eval : man -> t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val any_sat : man -> t -> (int * bool) list
(** One satisfying path as a list of literals.  @raise Not_found on [ff]. *)

val iter_sat : man -> ?limit:int -> t -> ((int * bool) list -> unit) -> unit
(** Iterate over satisfying paths (cubes), at most [limit] of them. *)

val iter_nodes : (t -> unit) -> t -> unit
(** Apply a function to every internal node of the DAG, once each,
    children before parents. *)

val nodes : t -> t list
(** All internal nodes, children before parents. *)

val fold_nodes : ('a -> t -> 'a) -> 'a -> t -> 'a

(** {2 Scratch tables}

    The per-call map from nodes to small integers that the traversals
    above run on, for passes outside the kernel that visit or number the
    nodes of a BDD once per call.  A table is leased from a pool of the
    calling domain for the length of one {!Scratch.with_table} call and
    returned on every exit, exceptions included; it holds no reference to
    a node once returned.  Keys are node uids, which are unique within
    one manager only, so a table holds the nodes of one manager. *)
module Scratch : sig
  type table

  val with_table : (table -> 'a) -> 'a
  (** [with_table fn] runs [fn] with an empty table.  The table must not
      be used after [fn] returns.  Nested calls lease distinct tables. *)

  val add : table -> t -> int
  (** The index of a node, adding it if absent: the number of nodes added
      before it, so indices run 0, 1, 2, … in order of addition. *)

  val find : table -> t -> int
  (** The index of a node, or [-1] if it was not added. *)
end

(** {1 Manager maintenance} *)

val clear_caches : man -> unit
(** Drop all operation caches (kept results remain valid). *)

val gc : man -> roots:t list -> int
(** Remove from the unique table every node not reachable from [roots] and
    clear the caches.  Returns the number of nodes collected.  BDDs other
    than (subgraphs of) [roots] must not be used afterwards. *)

val unique_size : man -> int
(** Number of live internal nodes in the unique table. *)

exception Node_limit
(** Raised by any node-creating operation once the unique table holds
    {!set_node_limit} nodes — the analogue of CUDD running out of memory.
    The manager stays consistent: collect garbage and either raise the
    limit or abandon the computation. *)

val set_node_limit : man -> int option -> unit
(** Install or clear the hard ceiling on live nodes. *)

exception Table_full
(** Raised by a node-creating operation when the insert would push a
    unique-table stripe past 2/3 load and {!set_table_capacity} forbids
    doubling it.  Refusing the insert at the load-factor threshold is
    what keeps the open-addressed probe loop away from the ~100%-full
    regime where it could spin without finding a free slot.  The manager
    stays consistent: raise the ceiling (or clear it) and retry, or
    abandon the computation.  Each refusal is counted in the [ut_full]
    key of {!stats} and surfaced as the [kernel.ut_full] metric. *)

val set_table_capacity : man -> int option -> unit
(** Install or clear a hard ceiling on unique-table *slots* (summed over
    stripes; the ceiling is apportioned per stripe, so a striped shared
    manager may refuse slightly before the exact total).  By default the
    table grows without bound.  With a ceiling installed, an insert that
    would require growing a stripe past its share raises {!Table_full}
    instead of growing. *)

val table_capacity : man -> int option
(** The ceiling installed by {!set_table_capacity}, if any. *)

val ut_full_hits : man -> int
(** Times {!Table_full} has been raised by this manager. *)

val set_cache_limit : man -> int -> unit
(** Capacity bound on each computed cache (default 2M entries).  The
    caches are lossy direct-mapped arrays in the style of CUDD's computed
    table: a colliding insert overwrites, so memory is hard-bounded and a
    lost entry only costs recomputation.  Caches start small and double as
    traffic warrants, never past the largest power of two within the
    limit; lowering the limit shrinks them immediately (dropping their
    contents — results already returned stay valid). *)

val node_limit : man -> int option

val set_tick : man -> (unit -> unit) option -> unit
(** Install (or clear) a hook invoked from inside node creation every few
    hundred nodes made.  The hook may raise to abandon a runaway
    computation cooperatively — the manager stays consistent, exactly as
    with {!Node_limit} — which is how {!module:Mt}'s runner enforces
    per-job deadlines without being able to kill a domain. *)

val stats : man -> (string * int) list
(** Internal counters, for logging.  Keys: [nodes_made], [unique_size],
    [peak_unique], [cache_hits], [cache_misses] (cumulative over every
    computed cache; monotone within a manager's lifetime), [ite_cache] and
    [op_cache] (occupied slots), [n_vars], [unique_capacity] (slots summed
    over the unique-table stripes), [cache_entries] and [cache_capacity] (occupied
    and total slots summed over all computed caches — [cache_entries]
    never exceeds [cache_capacity], which {!set_cache_limit} bounds),
    [cache_overwrites] (computed-cache inserts that evicted a prior
    entry), [ut_grows] (unique-table stripe doublings), [gc_runs] and
    [gc_collected] (cumulative over {!gc} calls), [node_limit_hits]
    (times {!Node_limit} was raised), the tiered-store trio
    [hot_nodes], [cold_nodes], [spilled_bytes] (all 0 unless a store
    registered itself with {!set_store_stats}), and the parallel-kernel
    contention counters [cas_retries], [stripe_waits], [ut_locks],
    [cache_races], [cache_inserts] (see {!contention}), [ut_full]
    (times {!Table_full} was raised), and the chain-reduction pair
    [chain_folds], [chain_mk] (0 unless a compressed-representation
    manager registered itself with {!set_chain_stats}). *)

val set_store_stats : man -> (unit -> int * int * int) option -> unit
(** Install (or clear) the provider of the [hot_nodes], [cold_nodes] and
    [spilled_bytes] entries of {!stats}.  [Store.Tiered.create]
    (lib/store) registers its manager here; with no provider installed
    the three keys read 0.  The callback must not call back into this
    manager. *)

val set_chain_stats : man -> (unit -> int * int) option -> unit
(** Install (or clear) the provider of the [chain_folds] and [chain_mk]
    entries of {!stats}: [(folds, mk_calls)] from a chain-reduced
    decision-diagram manager ([Dd], lib/dd) working alongside this one.
    With no provider installed both keys read 0.  The callback must not
    call back into this manager. *)

val chain_stats : man -> int * int
(** The provider's current [(chain_folds, chain_mk)], or [(0, 0)]. *)

(** {1 Observation}

    Low-frequency structural events, for metrics and tracing.  The hook
    fires only on the rare paths (table growth, cache resize, {!gc},
    {!Node_limit}) plus a progress beat every few hundred fresh nodes;
    with no observer installed the cost on the node-creation path is one
    branch. *)

type event =
  | Unique_grow of { capacity : int; live : int }
      (** The unique table doubled to [capacity] slots. *)
  | Cache_resize of { cache : string; capacity : int }
      (** The named computed cache ("ite", "op", …, "weight") grew. *)
  | Gc of { collected : int; live : int }  (** A {!gc} finished. *)
  | Limit_hit of { limit : int }
      (** {!Node_limit} is about to be raised. *)
  | Progress of { nodes_made : int; unique_size : int }
      (** Periodic beat from node creation (same cadence as the
          {!set_tick} hook). *)

val set_observer : man -> (event -> unit) option -> unit
(** Install (or clear) the event hook.  Called synchronously from inside
    kernel operations: it must not call back into this manager, and
    should return quickly.  [Progress] observers run before the
    {!set_tick} hook of the same beat (which may raise). *)

val set_fault_hook : man -> (unit -> unit) option -> unit
(** Install (or clear) a fault-injection hook for chaos testing (see
    [Resil.Fault]).  The hook fires only on rare maintenance paths — the
    node-creation beat (same cadence as {!set_tick}), computed-cache
    growth, and {!gc} entry — so with no hook installed the cost is one
    branch on paths already off the hot loop.  The hook may raise (a
    forced {!Node_limit}, a simulated abort) or wipe the caches with
    {!clear_caches}; either leaves the manager consistent, exactly as the
    tick hook does.  Production code never installs one. *)

(** {1 Serialization and cross-manager transfer}

    A BDD (or a list of BDDs sharing one DAG) can be exported to a compact
    topologically-sorted array form, moved between managers — including
    managers owned by other domains, or with a different variable order —
    and saved to or loaded from disk for checkpointing.  Node [i] of
    {!serialized.s_nodes} may only reference constants (indices 0 and 1)
    or earlier nodes (index [j + 2] is node [j]), so a valid value can
    always be rebuilt bottom-up in one pass. *)

type serialized = {
  s_nvars : int;  (** declared variables of the source manager *)
  s_order : int array;
      (** the source level-to-variable order (metadata: {!import} rebuilds
          under the {e destination} order) *)
  s_nodes : (int * int * int) array;
      (** [(var, hi, lo)] triples, children before parents; indices 0 and 1
          are the [ff] and [tt] constants, node [j] has index [j + 2] *)
  s_roots : int array;  (** indices of the exported roots *)
}

exception Corrupt of string
(** Raised by {!import}, {!import_list}, {!serialized_of_string} and
    {!load} on malformed input, with a human-readable reason.  Any prefix
    of work already done stays in the destination manager but no invalid
    node is ever created. *)

val export : man -> t -> serialized
val export_list : man -> t list -> serialized
(** [export_list man fs] serializes the shared DAG of [fs] once; the roots
    come back in the same order from {!import_list}. *)

val import : man -> serialized -> t
(** Rebuild an exported BDD inside [man] (a different manager is the
    point; the same manager merely returns the identical node).  Variables
    are identified by index and declared on demand.  When the destination
    variable order differs from the source's, the result is rebuilt
    correctly under the destination order (at ITE cost for the reordered
    region).  @raise Corrupt on malformed input or a root count other than
    one. *)

val import_list : man -> serialized -> t list

val serialized_to_string : serialized -> string
(** Compact binary encoding (magic + LEB128 varints). *)

val serialized_of_string : string -> serialized
(** @raise Corrupt on anything {!serialized_to_string} did not produce. *)

val serialized_digest : serialized -> string
(** Stable 16-hex-char content digest (FNV-1a 64) of the canonical byte
    encoding.  Cheap index key for registries of published BDDs; it is
    not collision-free, so exactness-critical consumers must confirm a
    hit against the full bytes. *)

val save : string -> serialized -> unit
(** Write the binary encoding to a file. *)

val load : string -> serialized
(** Read a file written by {!save}.  @raise Corrupt on malformed bytes. *)

val reorder : man -> order:int array -> roots:t list -> t list
(** [reorder man ~order ~roots] installs [order] (a level-to-variable
    permutation of length [nvars man]) as the new variable order, rebuilds
    [roots] under it and returns them, in order.  Every other BDD of the
    manager becomes invalid: this is the price of hash-consed immutable
    nodes (CUDD sifts in place; see DESIGN.md).  Sifting heuristics that
    choose a good [order] live in {!module:Reorder}. *)
