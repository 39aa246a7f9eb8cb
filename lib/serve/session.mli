(** Per-connection server state: a private BDD manager, the handle
    namespace, registered models — plus the two pieces of robustness
    state that let a session outlive its worker and its connection: a
    replay {e journal} and an idempotency {e dedup window}.

    One session = one manager.  Sessions share nothing (no cross-session
    unique table, no shared caches), so they evict independently:
    {!maybe_gc} collects a session's manager against its own live handles
    without ever invalidating another session's BDDs.  The server routes
    every request of a session to the same worker domain ({!Mt.Service}
    shard), so none of this needs locks.

    {2 Journals}

    {!record_exchange} appends one entry per handle-creating exchange:
    deterministic exact results ([Lit], exact [Apply]) as replayable
    operations, everything else ([Put], degraded applies, [Approx],
    [Decomp], [Reach]) as exported BDD bytes — so {!rebuild} on a fresh
    manager reproduces {e semantically identical} handles under the same
    ids, which is what lets the server respawn a crashed worker without
    clients noticing more than a latency blip.  The journal self-compacts
    down to "models + live handles" once it exceeds both ~512 entries and
    twice that compacted size (so huge sessions never re-compact on every
    request), keeping it proportional to live state, and round-trips through
    {!Resil.Checkpoint}-style checksummed atomic files
    ({!journal_save} / {!journal_load}). *)

type t

(** One step of the replay log. *)
type journal_entry =
  | J_lit of { handle : int; var : int; phase : bool }
  | J_op of { handle : int; op : Proto.op }
      (** an exact, deterministic apply: replays by re-execution *)
  | J_bytes of { handle : int; bdd : string }
      (** a result snapshotted as [Bdd.export] bytes *)
  | J_compile of { name : string; blif : string; handles : int list }
  | J_model of { name : string; blif : string }
      (** model registration without handles (from compaction) *)
  | J_free of int list

val create :
  ?shared:bool ->
  ?table_capacity:int ->
  ?arena:Arena.t ->
  ?key:string ->
  id:int ->
  unit ->
  t
(** [shared] (default false) creates the session's manager with
    [Bdd.create ~shared:true] so a parallel-kernel pool may fork requests
    across domains ({!Handler.handle}'s [pool]); single-domain sessions
    keep the private, lock-free layout.  [table_capacity] installs a
    {!Bdd.set_table_capacity} ceiling on the manager (the serve layer's
    {!Bdd.Table_full} degradation path).  [key] marks the session as
    durable — attachable by name across connections (see
    {!Proto.Attach}).

    [arena] makes the session {e arena-backed}: it builds no manager of
    its own but overlays {!Arena.man} — published segments resolve
    zero-copy, request-local results are ordinary nodes in the shared
    table, and [shared]/[table_capacity] are ignored (the arena already
    fixed both).  {!gc}/{!maybe_gc} become no-ops (reclamation is
    {!Arena.reclaim}, at quiescence), and segment references the session
    retains are given back at {!close}. *)

val id : t -> int
val key : t -> string option
val man : t -> Bdd.man
val arena : t -> Arena.t option
val arena_backed : t -> bool

val adopt_arena : t -> Arena.handle -> unit
(** Take ownership of one {e existing} reference to an arena segment
    (e.g. the one {!Arena.publish} hands back); released at {!close}. *)

val retain_arena : t -> Arena.handle -> unit
(** {!Arena.retain} plus {!adopt_arena}.  @raise Invalid_argument on a
    session that is not arena-backed. *)

val close : t -> unit
(** Release every arena reference the session owns.  Idempotent; a
    no-op for non-arena sessions.  Call when the session is permanently
    done (connection gone for anonymous sessions, linger expiry or
    drain for durable ones). *)

val put : t -> Bdd.t -> int
(** Register a BDD under a fresh handle (handles start at 1 and are never
    reused within a session). *)

val put_at : t -> handle:int -> Bdd.t -> unit
(** Register a BDD under a specific handle (journal replay), advancing
    the fresh-handle counter past it. *)

val get : t -> int -> Bdd.t
(** @raise Not_found on an unknown or freed handle. *)

val free : t -> int list -> int
(** Drop handles; unknown ones are ignored.  Returns how many were
    actually freed.  The nodes are reclaimed by the next {!maybe_gc}. *)

val handle_count : t -> int

val add_model : t -> string -> Circuit.t -> unit
(** Register (or replace) a named circuit for later {!Proto.Reach}
    requests.  Circuits are plain data — they hold no BDDs, so models
    survive {!maybe_gc} trivially. *)

val model : t -> string -> Circuit.t option

val roots : t -> Bdd.t list
(** Every BDD the session owns (the live handles). *)

val gc : t -> unit
(** Collect the manager against {!roots} now ({!Resil.Degrade.collect}). *)

val maybe_gc : t -> unit
(** Amortized eviction: collect once the unique table passes an arming
    threshold, then re-arm at twice the live size (the
    {!Traversal.make_maintenance} policy, per session). *)

val requests : t -> int
val note_request : t -> unit
(** Served-request counter, for the stats reply. *)

(** {1 Idempotency dedup}

    A bounded ring of [(token, encoded reply)] pairs.  The server
    consults it before executing any request that carries a non-zero
    {!Proto.meta} token: a hit replays the recorded reply verbatim, so a
    client retry after a torn frame cannot re-execute a stateful request
    (exactly-once over the last {!dedup_window} tokens per session). *)

val dedup_window : int

val dedup_find : t -> token:int -> string option
(** The reply frame previously recorded for [token], if still in the
    window.  Token [0] never matches. *)

val dedup_add : t -> token:int -> string -> unit
(** Record the reply frame served for [token] (no-op for token [0]). *)

(** {1 Journal} *)

val record_exchange : t -> Proto.request -> Proto.reply -> unit
(** Append the journal entry (if any) a served exchange implies.  Call
    only for exchanges that actually executed (not deduped replays). *)

val record : t -> journal_entry -> unit
val journal : t -> journal_entry list
(** Oldest first — the replay order. *)

val journal_length : t -> int

val rebuild :
  ?shared:bool ->
  ?table_capacity:int ->
  ?arena:Arena.t ->
  ?key:string ->
  id:int ->
  journal_entry list ->
  t * int
(** Replay a journal into a brand-new session (fresh manager).  Returns
    the session and the number of entries that failed to replay (their
    handles are simply absent — a later request on one gets a clean
    "unknown handle" error, never corruption). *)

val journal_to_string : journal_entry list -> string
val journal_of_string : string -> journal_entry list
(** Checksummed ["BSJ1"] encoding over {!Codec}; [journal_of_string]
    raises {!Bdd.Corrupt}, and nothing else, on truncation, bit flips,
    trailing bytes, or a count or length beyond the bytes left. *)

val journal_save : t -> string -> unit
(** Atomic checksummed write of {!journal} via
    {!Resil.Checkpoint.write_atomic}. *)

val journal_load : string -> journal_entry list
(** @raise Bdd.Corrupt on any mismatch. *)
