(** Shared-memory parallel kernel pool.

    Where {!Runner} parallelizes {e across} jobs (each on a private
    manager), [Par] hands a set of worker domains to {e one} large
    operation on a [Bdd.create ~shared:true] manager: the reach engines
    use it for parallel image computation, the serve layer for oversized
    single requests.

    A [Par.t] wraps a {!Tpool.t}; {!shutdown} exports the pool's fork and
    steal totals to the [mt.par_tasks] and [mt.par_steals] counters of
    {!Obs.Metrics.default} (branch-gated on {!Obs.Metrics.recording}). *)

type t

val create : jobs:int -> unit -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] helper domains; clamped to
    at least 1). *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, always {!shutdown}. *)

val shutdown : t -> unit
(** Export the pool's metrics and join the helper domains.  Call it
    once; the pool must not be used afterwards. *)

val pool : t -> Tpool.t
(** The underlying pool, for the [?pool] arguments of the reach engines
    and the [Bdd.par_*] operations. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]; also {!Runner.run}'s default
    worker count. *)

val warn_oversubscribed : flag:string -> int -> bool
(** [warn_oversubscribed ~flag jobs] prints a stderr warning and returns
    [false] when [jobs] exceeds {!recommended} (naming [flag], e.g.
    ["--jobs"], in the message); returns [true] otherwise.  Callers keep
    the requested value either way — the warning exists so a 1-core CI
    host running an 8-domain matrix leg is loud about what it measures. *)
