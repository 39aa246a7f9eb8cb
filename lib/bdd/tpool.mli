(** Fork/join task pool over work-stealing deques.

    The repository's one work-stealing scheduler: the execution substrate
    of the parallel kernel (the [?pool] of {!Bdd.band}, {!Bdd.bor},
    {!Bdd.bxor}, {!Bdd.bdiff}, {!Bdd.ite} and {!Bdd.and_exists}) and of
    [Mt.Runner], whose jobs are root tasks here.  A fixed set of helper domains plus the calling domain, fed
    through per-slot {!Wsdeque}s.  Joining a pending future {e helps} —
    the joiner runs other queued tasks instead of blocking — so fork/join
    trees of any depth cannot deadlock on a finite pool, and a pool of
    size 1 simply runs everything inline.

    A pool is manager-agnostic (tasks are plain thunks) and safe to share
    between concurrent operations and managers; a task may create, use and
    shut down a pool of its own.  [Mt.Par] wraps a pool for the parallel
    kernel's callers and exports its fork and steal counts as metrics at
    shutdown. *)

type t

type 'a future

val create : workers:int -> t
(** [create ~workers] spawns [workers - 1] helper domains (the calling
    domain is the pool's remaining worker whenever it forks and joins).
    [workers] is clamped to at least 1; [create ~workers:1] spawns
    nothing. *)

val size : t -> int
(** Total workers, helpers plus the caller.  [size t = 1] means fully
    sequential. *)

val fork : t -> (unit -> 'a) -> 'a future
(** Queue a task.  It may run on any helper domain, or inline in whoever
    joins it first. *)

val join : t -> 'a future -> 'a
(** Wait for a task, running other queued tasks while it is pending; the
    task's exception, if any, is re-raised here.
    @raise Invalid_argument on a cancelled future. *)

val cancel : t -> 'a future -> unit
(** Make sure the future's thunk is finished or will never start, then
    return.  The exception-safety valve: call it on a pending fork before
    unwinding so no orphan task outlives the operation that forked it.
    Idempotent; a completed future is left untouched. *)

val shutdown : t -> unit
(** Stop and join the helper domains.  Pending unclaimed tasks are not
    run.  The pool must not be used afterwards. *)

val stats : t -> int * int * int
(** [(forks, execs, steals)] since creation: tasks forked, tasks actually
    executed (forked minus cancelled-before-claim), and executions that
    crossed deques. *)
