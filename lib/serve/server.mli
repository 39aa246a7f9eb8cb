(** The BDD service: a Unix-domain / TCP front end over {!Proto}
    frames, dispatching onto a session-sharded {!Mt.Service} pool.

    Threading model: the socket front end (one event-loop thread), a
    housekeeper and (optionally) the pool supervisor are sys-threads on
    the main domain (they only do IO and registry work); the [workers]
    pool shards are OCaml domains.  A session is pinned to shard
    [session_id mod workers], so its {!Session} manager is only ever
    touched by one domain — hash-consing stays lock-free, and requests
    within a session execute in order.

    The event loop multiplexes every connection through [Unix.select]
    (so it is bounded by [FD_SETSIZE] — about a thousand concurrent
    connections; [max_sessions] keeps it under that): frames are parsed
    incrementally off per-connection buffers, so clients may {e
    pipeline} requests (many frames in flight, or a {!Proto.encode_batch}
    envelope) and one slow peer costs a buffer, not a thread.  Replies
    are written opportunistically by the worker that computed them
    (non-blocking) with the loop flushing any residue — reply {e order}
    per session is still submission order, because a session's requests
    all run on one shard.  A frame that does not decode draws one typed
    [Error "protocol error: …"] reply, and the loop hangs up that
    connection only.

    Admission control: each shard queue holds at most [queue_depth]
    weight.  A request arriving at a full queue is answered
    {!Proto.Overloaded} immediately by the front end — the server sheds
    load explicitly instead of buffering without bound; a batch of N
    weighs N (and is refused with N [Overloaded] replies, keeping one
    reply per request).  [Ping] is answered inline by the front end (it
    touches no manager), so liveness probes work even when the compute
    shards are saturated.

    {2 Shared arena}

    [arena = true] backs {e every} session with one process-wide
    {!Arena.t}: compiled models are published once as refcounted
    segments and later sessions resolve them zero-copy from the arena
    catalog (zero re-imports, counted in [arena.hits]); [Put] payloads
    are content-deduplicated the same way.  Per-request [limits] are not
    armed in arena mode (they are manager-global; see {!Handler}).
    [Stats] replies then include the [arena.*] counters.

    {2 Robustness}

    {b Deadlines}: a request carrying {!Proto.meta} [deadline_ms] runs
    under the tighter of that and the configured per-request limits; a
    blown deadline is rescued by the {!Handler} degradation ladder
    (certificate rung ["deadline"]) or answered as a typed [Error].
    {b Stall timeouts} ([io_timeout]): the loop drops a connection that
    has sent nothing for that long, so slow-loris peers and torn frames
    cost a buffer for a bounded time.  {b Durable sessions}: [Attach key]
    rebinds a connection to a keyed session that survives disconnects
    for [session_linger] seconds and is the unit of supervised recovery.
    {b Supervision} ([hang_timeout]): a background supervisor respawns a
    worker domain stuck on one request, kills the poisoned session's
    connection, and rebuilds durable sessions from their {!Session}
    journals — other sessions on the shard keep their state and their
    queued requests.  {b Idempotency}: requests carrying a {!Proto.meta}
    token are deduped per session; a retry of an already-executed
    request replays the recorded reply instead of re-executing.

    Feeds [serve.*] metrics when {!Obs.Metrics} recording is on:
    [serve.accepted], [serve.requests], [serve.replies],
    [serve.rejected_overload], [serve.degraded_replies], [serve.errors],
    [serve.bytes_in], [serve.bytes_out], [serve.io_timeouts],
    [serve.deduped], [serve.quarantined], [serve.rebuilt_sessions],
    [serve.resumed_sessions] (counters), [serve.sessions] (gauge) and
    [serve.request_us] (histogram); [serve.table_full_degraded] is fed
    by the handler's ladder. *)

type bind =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of int  (** loopback TCP; [0] picks an ephemeral port *)

type config = {
  bind : bind;
  workers : int;
  queue_depth : int;
  limits : Resil.Degrade.budget;  (** per-request budgets *)
  max_sessions : int;  (** accept backstop; excess connections are closed *)
  on_dispatch : (Proto.request -> unit) option;
      (** test hook, called by the shard worker as it picks a request up
          (lets tests hold a worker busy deterministically) *)
  par_jobs : int;
      (** parallel kernel width: when > 1, a {!Mt.Par} pool of this many
          domains is shared by all shards, session managers are created
          [~shared:true], and each request's boolean connectives and
          reachability images fork across the pool (replies stay
          bit-identical).  1 (the default) keeps the historical
          one-domain-per-session kernel. *)
  io_timeout : float option;
      (** stall timeout (seconds): the event loop keeps each
          connection's last-receive time and drops a connection that has
          sent no byte for longer than this, counting it in
          [serve.io_timeouts].  [None] (default) never drops an idle
          connection; a server exposed to untrusted or chaotic peers
          should set it — an idle-but-healthy connection that trips it
          simply reconnects. *)
  hang_timeout : float option;
      (** supervisor trigger: respawn a worker domain busy on a single
          request for longer than this many seconds ([None] = no
          supervisor).  Should comfortably exceed the worst honest
          request latency. *)
  session_linger : float;
      (** how long a detached keyed session stays resumable (seconds)
          before the housekeeper reaps it *)
  table_capacity : int option;
      (** {!Bdd.set_table_capacity} ceiling installed on every session
          manager — makes {!Bdd.Table_full} a survivable, ladder-rescued
          condition instead of unbounded growth *)
  session_spool : string option;
      (** directory for {!Session.journal_save} checkpoint files during
          quarantine rebuilds ([None] = rebuild from the in-memory
          journal only) *)
  arena : bool;
      (** back every session with one process-wide {!Arena.t} (shared
          zero-copy segments, compile/put dedup).  Default [false]. *)
}

val default_config : config
(** 4 workers, queue depth 64, no budget, 1024 sessions, 1 par job,
    Unix path ["bdd-serve.sock"], no io/hang timeouts, 30 s session
    linger, no table capacity, no spool, no arena. *)

type t

val start : config -> t
(** Bind, listen and return immediately; sessions are served until
    {!drain}.  Ignores [SIGPIPE] process-wide (a peer hanging up mid-
    reply must not kill the server).  A stale Unix socket path left by a
    crashed predecessor is probed and unlinked; a path with a {e live}
    server behind it raises [EADDRINUSE] untouched.
    @raise Invalid_argument before touching a socket when [workers],
    [queue_depth] or [table_capacity] is below 1.
    @raise Unix.Unix_error when the address cannot be bound. *)

val address : t -> Unix.sockaddr
(** The bound address — with [Tcp 0], the actual ephemeral port. *)

val arena : t -> Arena.t option
(** The process-wide arena, when [config.arena] is set — e.g. for
    in-process inspection of segment/refcount state in tests. *)

val drain : t -> unit
(** Graceful shutdown: stop accepting, answer everything queued, join
    the worker domains, close every connection and the listener (and
    unlink a Unix-domain socket path).  Requests that arrive while
    draining get {!Proto.Overloaded}.  Idempotent. *)

val run : t -> stop:(unit -> bool) -> unit
(** Serve until [stop ()] turns true (polled a few times a second — the
    signal-handler-sets-a-flag idiom), then {!drain}. *)

(** {1 Chaos probes}

    Deterministic worker-failure injection for the chaos suite and the
    soak harness — both submit through the normal queue, so they occupy
    a real worker exactly like a poisoned request would. *)

val inject_worker_hang : t -> shard:int -> seconds:float -> bool
(** Wedge shard [shard]'s worker for [seconds] (bounded, so an
    unsupervised run still terminates).  [false] if the queue was full. *)

val inject_worker_kill : t -> shard:int -> bool
(** Kill shard [shard]'s worker domain via {!Mt.Service.Poison}. *)

(** {1 Introspection} *)

val sessions : t -> int
val durable_sessions : t -> int
val accepted : t -> int
val requests : t -> int
val batches : t -> int
val rejected : t -> int
val degraded_replies : t -> int
val errors : t -> int
val io_timeouts : t -> int
val deduped : t -> int
val respawns : t -> int
val quarantined : t -> int
val rebuilt_sessions : t -> int
val resumed_sessions : t -> int
