(** Supervised job runner on a work-stealing pool.

    Every job receives a {e fresh, private} {!Bdd.man}: the unique table
    and operation caches are replicated per job rather than shared, so
    hash-consing needs no locks (see DESIGN.md §MT).  Move BDDs into a job
    with {!Bdd.export} in the caller and {!Bdd.import} in the job (or
    {!Bdd.export_list} / {!Bdd.import_list}, which keep the roots'
    sharing); return only plain data.

    Each run forks its jobs as root tasks of a {!Tpool} of its own and
    joins them in submission order: idle helper domains steal the oldest
    queued job, and the calling domain runs jobs too while it waits.  The
    runner spawns no domains besides the pool's helpers.  Results always
    come back in submission order, so output built from them is
    deterministic no matter how the jobs were scheduled.

    {2 Supervision}

    A {!retry} policy re-executes jobs whose outcome is [Timeout],
    [Over_budget] or [Crashed] — each attempt on a fresh manager, after
    an exponential backoff with deterministic jitter (derived from the
    job label and attempt number, so a replay waits the same amount).  A
    job that fails every attempt is {e quarantined}: its final outcome is
    [Quarantined] and it is never re-run.  With no policy (the default)
    behaviour is exactly one attempt, as before.

    When {!Resil.Fault} injection is armed, the runner participates: each
    attempt probes {!Resil.Fault.on_job_dispatch} (which may simulate a
    dispatch crash) and attaches the kernel fault injector to the job's
    private manager.  Disarmed, both are a single atomic load.

    When {!Obs.Trace} or {!Obs.Metrics} recording is on, each run emits an
    [mt.run] span on the caller, one [mt.worker] span on each helper
    domain before any job starts (so every worker gets a Perfetto lane),
    a [job:<label>] span per job on whichever domain ran it, and feeds the
    [mt.*] counters/histograms of {!Obs.Metrics.default} (per-attempt job
    outcomes, [mt.retries], [mt.quarantined], [mt.steals] — the jobs that
    ran on a helper — wall-time and peak-node distributions).  Job
    managers get an {!Obs.Kernel} observer.  All of it is branch-gated:
    disabled, the runner behaves and times exactly as before. *)

type retry = {
  max_attempts : int;  (** total attempts, including the first; >= 1 *)
  backoff : float;  (** base delay in seconds, doubled per retry *)
  backoff_max : float;  (** delay ceiling *)
  jitter : float;
      (** fraction in [0, 1]: each delay is scaled by a deterministic
          factor in [1 - jitter, 1 + jitter] hashed from (label, attempt) *)
}

val no_retry : retry
(** One attempt, no supervision — the historical behaviour. *)

val default_retry : retry
(** 3 attempts, 50 ms base backoff, 1 s ceiling, 25% jitter. *)

type 'a outcome =
  | Done of 'a
  | Timeout  (** the deadline fired inside node creation *)
  | Over_budget  (** the node budget raised {!Bdd.Node_limit} *)
  | Crashed of { exn : string; backtrace : string }
      (** any other exception; siblings are unaffected.  [exn] is the
          printed exception, [backtrace] the captured raise trace (empty
          when the runtime had none). *)
  | Quarantined of { attempts : int; last : 'a outcome }
      (** every attempt of an active retry policy failed; [last] is the
          terminal failure (never [Done] or [Quarantined]) *)

type report = {
  label : string;
  wall : float;  (** wall-clock seconds of the final attempt *)
  attempts : int;  (** executions performed (1 unless a retry policy ran) *)
  peak_nodes : int;  (** high-water mark of the job's unique table *)
  nodes_made : int;
  cache_hits : int;
  cache_misses : int;
  stats : (string * int) list;
      (** the job manager's full {!Bdd.stats} snapshot, taken as the job
          finished; the headline fields above come from the same snapshot
          (final attempt) *)
}

type 'a result = { outcome : 'a outcome; report : report }
type 'a job

val job :
  ?budget:Resil.Degrade.budget -> label:string -> (Bdd.man -> 'a) -> 'a job
(** [budget] is armed on the job's fresh manager by
    {!Resil.Degrade.within}, so its node budget is an absolute ceiling. *)

val run : ?jobs:int -> ?retry:retry -> 'a job list -> 'a result list
(** Execute the jobs on [jobs] workers (default {!Par.recommended};
    clamped to the job count).  [jobs = 1] runs inline in the calling
    domain.  Results are in submission order.  [retry]
    (default {!no_retry}) supervises every job of the run.  Backtrace
    recording is switched on for the process if it was off, so [Crashed]
    outcomes carry a trace. *)

val map :
  ?jobs:int ->
  ?retry:retry ->
  ?budget:Resil.Degrade.budget ->
  label:('a -> string) ->
  (Bdd.man -> 'a -> 'b) ->
  'a list ->
  'b result list
(** [map f xs]: one job per element, shared budget and retry policy. *)

val value : 'a result -> 'a option
(** The payload of a [Done] outcome. *)

val pp_outcome : Format.formatter -> 'a outcome -> unit
val pp_report : Format.formatter -> report -> unit
