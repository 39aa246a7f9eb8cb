(** Request execution against a session — the server with the sockets
    taken away.

    {!handle} never raises and never corrupts the session: any failure
    (unknown handle, malformed BLIF, a blown budget the ladder cannot
    rescue, an injected fault) comes back as {!Proto.Error}, and the
    manager is left consistent, so the next request on the same session
    runs unharmed.  The in-process tests and the server share this code
    path, which is what makes the server's replies spot-checkable against
    an oracle.

    {2 Degradation on the wire}

    Requests that build BDDs run under the per-request budget through
    {!Resil.Degrade.walk}: exact, a gc and the exact retry, then — only
    for requests monotone in their operands ([And], [Or], [Exists],
    [Approx]) — heavy-branch under-approximated operands at shrinking
    thresholds, whose reply carries [Degraded ["HB\@512"]] and a {e sound
    under-approximation} (a subset) of the exact answer.  The others
    ([Not], [Xor], [Ite], [Forall], [Decomp], [Compile], [Put]) reply
    [Error] after the retry rather than return an unsound result.

    {2 Arena-backed sessions}

    When the session carries an {!Arena.t} (see [Session.create]'s
    [arena]), [Compile] consults the arena catalog first — a hit views
    the published output segments zero-copy instead of recompiling — and
    a miss publishes what it compiled for the next session; [Put] goes
    through [Arena.publish_serialized], so identical payloads across
    sessions share one segment.  Per-request budgets are {e not} armed
    for arena-backed sessions: node limits and tick hooks are
    manager-global, and the manager is shared by concurrent domains —
    resource use is bounded by the arena's table capacity and the
    server's admission control instead. *)

val handle :
  ?stats_extra:(unit -> (string * int) list) ->
  ?pool:Tpool.t ->
  Resil.Degrade.budget ->
  Session.t ->
  Proto.request ->
  Proto.reply
(** Execute one request.  [stats_extra] is appended to [Stats] replies
    (the server injects its process-wide counters there).  [pool] forks
    the boolean connectives ([And]/[Or]/[Xor]/[Ite]) and [Reach]
    image computation across the pool's domains; the session must then
    have been created with [Session.create ~shared:true].  Replies are
    bit-identical with and without a pool. *)

val degraded : Proto.reply -> bool
(** The reply carries a [Degraded] certificate (for metrics). *)
