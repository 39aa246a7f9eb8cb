(* Supervised job runner on a work-stealing pool.

   Each job runs against a fresh private manager, so hash-consing stays
   lock-free: the unique table is replicated, never shared (DESIGN.md §MT).
   BDD operands enter a job through Bdd.import and only plain data (sizes,
   counts, strings) should leave it.

   Scheduling is Tpool's: a run forks every job, wrapped in its supervision
   ([exec_supervised]), as a root task of a pool of its own, and joins the
   futures in submission order.  Helpers steal the oldest job; the caller
   helps while it waits, so it is a worker too, and a one-worker pool runs
   every job inline in the caller.

   Domains cannot be killed, so cancellation is cooperative but does not
   require the job's help: Resil.Degrade.within arms the job's budget on
   Bdd.set_node_limit and the Bdd.set_tick hook, both of which fire inside
   node creation — precisely where a runaway BDD job spends its time.

   Supervision happens inside the task that runs the job: a failed
   attempt sleeps (exponential backoff, jitter deterministic in the label
   and attempt so replays pace identically) and re-executes on a fresh
   manager.  The worker is blocked during the backoff on purpose — a
   failing job should not be able to flood the pool with retries while
   healthy jobs wait. *)

type retry = {
  max_attempts : int;
  backoff : float;
  backoff_max : float;
  jitter : float;
}

let no_retry = { max_attempts = 1; backoff = 0.; backoff_max = 0.; jitter = 0. }

let default_retry =
  { max_attempts = 3; backoff = 0.05; backoff_max = 1.0; jitter = 0.25 }

type 'a outcome =
  | Done of 'a
  | Timeout
  | Over_budget
  | Crashed of { exn : string; backtrace : string }
  | Quarantined of { attempts : int; last : 'a outcome }

type report = {
  label : string;
  wall : float;
  attempts : int;
  peak_nodes : int;
  nodes_made : int;
  cache_hits : int;
  cache_misses : int;
  stats : (string * int) list;
}

type 'a result = { outcome : 'a outcome; report : report }

type 'a job = {
  label : string;
  budget : Resil.Degrade.budget;
  work : Bdd.man -> 'a;
}

let job ?(budget = Resil.Degrade.no_budget) ~label work =
  { label; budget; work }

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

(* Handles are registered once at link time (registration takes a lock;
   recording through a handle does not), so every snapshot carries the
   full mt.* schema even before the first run. *)
module M = struct
  open Obs

  let reg = Metrics.default
  let jobs = Metrics.counter reg "mt.jobs"
  let jobs_done = Metrics.counter reg "mt.jobs_done"
  let jobs_timeout = Metrics.counter reg "mt.jobs_timeout"
  let jobs_over_budget = Metrics.counter reg "mt.jobs_over_budget"
  let jobs_crashed = Metrics.counter reg "mt.jobs_crashed"
  let retries = Metrics.counter reg "mt.retries"
  let quarantined = Metrics.counter reg "mt.quarantined"
  let nodes_made = Metrics.counter reg "mt.nodes_made"
  let cache_hits = Metrics.counter reg "mt.cache_hits"
  let cache_misses = Metrics.counter reg "mt.cache_misses"
  let steals = Metrics.counter reg "mt.steals"
  let job_wall_us = Metrics.histogram reg "mt.job_wall_us"
  let job_peak_nodes = Metrics.histogram reg "mt.job_peak_nodes"
  let workers = Metrics.gauge reg "mt.workers"
  let last_run_jobs = Metrics.gauge reg "mt.last_run_jobs"
end

let exec ~attempt j =
  let man = Bdd.create () in
  if Obs.Kernel.observing () then Obs.Kernel.attach man;
  if Resil.Fault.enabled () then Resil.Fault.attach man;
  let outcome, wall =
    Obs.Trace.with_span ("job:" ^ j.label) (fun () ->
        Obs.Timing.time (fun () ->
            try
              if Resil.Fault.enabled () then
                Resil.Fault.on_job_dispatch ~label:j.label ~attempt;
              Done (Resil.Degrade.within j.budget man (fun () -> j.work man))
            with
            | Bdd.Node_limit -> Over_budget
            | Resil.Degrade.Deadline -> Timeout
            | e ->
                Crashed
                  {
                    exn = Printexc.to_string e;
                    backtrace = Printexc.get_backtrace ();
                  }))
  in
  let stats = Bdd.stats man in
  if Obs.Metrics.recording () then begin
    Obs.Metrics.inc
      (match outcome with
      | Done _ -> M.jobs_done
      | Timeout -> M.jobs_timeout
      | Over_budget -> M.jobs_over_budget
      | Crashed _ | Quarantined _ -> M.jobs_crashed)
      1;
    Obs.Metrics.inc M.nodes_made (stat stats "nodes_made");
    Obs.Metrics.inc M.cache_hits (stat stats "cache_hits");
    Obs.Metrics.inc M.cache_misses (stat stats "cache_misses");
    Obs.Metrics.observe M.job_wall_us (int_of_float (wall *. 1e6));
    Obs.Metrics.observe M.job_peak_nodes (stat stats "peak_unique")
  end;
  {
    outcome;
    report =
      {
        label = j.label;
        wall;
        attempts = attempt;
        peak_nodes = stat stats "peak_unique";
        nodes_made = stat stats "nodes_made";
        cache_hits = stat stats "cache_hits";
        cache_misses = stat stats "cache_misses";
        stats;
      };
  }

(* Deterministic factor in [1 - jitter, 1 + jitter]: hashed, not drawn,
   so a replayed run backs off identically without any shared PRNG. *)
let jitter_factor retry label attempt =
  if retry.jitter <= 0. then 1.
  else
    let h = Hashtbl.hash (label, attempt) land 0xFFFF in
    let u = (float_of_int h /. 32767.5) -. 1. in
    1. +. (retry.jitter *. u)

let backoff_delay retry label attempt =
  (* attempt = the one that just failed, 1-based *)
  let base = retry.backoff *. (2. ** float_of_int (attempt - 1)) in
  min retry.backoff_max base *. jitter_factor retry label attempt

let exec_supervised retry j =
  let rec go attempt =
    let r = exec ~attempt j in
    match r.outcome with
    | Done _ -> r
    | Timeout | Over_budget | Crashed _ when attempt < retry.max_attempts ->
        if Obs.Metrics.recording () then Obs.Metrics.inc M.retries 1;
        let d = backoff_delay retry j.label attempt in
        if d > 0. then Unix.sleepf d;
        go (attempt + 1)
    | last ->
        if retry.max_attempts <= 1 then r
        else begin
          (* every attempt burned: quarantine so callers can tell a poison
             job from a one-shot failure *)
          if Obs.Metrics.recording () then Obs.Metrics.inc M.quarantined 1;
          { r with outcome = Quarantined { attempts = attempt; last } }
        end
  in
  go 1

(* Every helper domain gets a trace lane by construction, not by luck of
   the steal: fork one marker per helper, each of which opens its
   [mt.worker i] span and spins until every marker has started.  A
   running marker holds its domain, so no helper takes two, and the
   caller waits on the count instead of joining (a join would run a
   marker inline), so none runs on the caller: each of the
   [workers - 1] helpers runs exactly one. *)
let mark_lanes pool workers =
  let helpers = workers - 1 in
  let started = Atomic.make 0 in
  let all_started () =
    while Atomic.get started < helpers do Domain.cpu_relax () done
  in
  let markers =
    List.init helpers (fun _ ->
        Tpool.fork pool (fun () ->
            let i = 1 + Atomic.fetch_and_add started 1 in
            Obs.Trace.with_span ("mt.worker " ^ string_of_int i) all_started))
  in
  all_started ();
  List.iter (Tpool.join pool) markers

let run ?jobs ?(retry = no_retry) js =
  if retry.max_attempts < 1 then invalid_arg "Mt.Runner.run: max_attempts < 1";
  (* without this, Crashed backtraces would be silently empty *)
  if not (Printexc.backtrace_status ()) then Printexc.record_backtrace true;
  let n = List.length js in
  let workers =
    max 1 (min (match jobs with Some w -> w | None -> Par.recommended ()) n)
  in
  if Obs.Metrics.recording () then begin
    Obs.Metrics.inc M.jobs n;
    Obs.Metrics.set M.workers workers;
    Obs.Metrics.set M.last_run_jobs n
  end;
  Obs.Trace.with_span "mt.run"
    ~args:
      [ ("jobs", string_of_int n); ("workers", string_of_int workers) ]
    (fun () ->
      let pool = Tpool.create ~workers in
      Fun.protect
        ~finally:(fun () -> Tpool.shutdown pool)
        (fun () ->
          if Obs.Trace.enabled () then mark_lanes pool workers;
          let caller = Domain.self () and on_helpers = Atomic.make 0 in
          let futures =
            List.map
              (fun j ->
                Tpool.fork pool (fun () ->
                    if Domain.self () <> caller then Atomic.incr on_helpers;
                    exec_supervised retry j))
              js
          in
          let results = List.map (Tpool.join pool) futures in
          if Obs.Metrics.recording () then
            Obs.Metrics.inc M.steals (Atomic.get on_helpers);
          results))

let map ?jobs ?retry ?budget ~label f xs =
  run ?jobs ?retry
    (List.map (fun x -> job ?budget ~label:(label x) (fun man -> f man x)) xs)

let value = function { outcome = Done v; _ } -> Some v | _ -> None

let rec pp_outcome : type a. Format.formatter -> a outcome -> unit =
 fun fmt -> function
  | Done _ -> Format.pp_print_string fmt "done"
  | Timeout -> Format.pp_print_string fmt "timeout"
  | Over_budget -> Format.pp_print_string fmt "over-budget"
  | Crashed { exn; backtrace } ->
      Format.fprintf fmt "crashed: %s" exn;
      if backtrace <> "" then
        Format.fprintf fmt "@,%s" (String.trim backtrace)
  | Quarantined { attempts; last } ->
      Format.fprintf fmt "quarantined after %d attempts (%a)" attempts
        pp_outcome last

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "%-32s %8.2fs  peak %8d nodes  made %9d  cache %d/%d hit/miss" r.label
    r.wall r.peak_nodes r.nodes_made r.cache_hits r.cache_misses;
  if r.attempts > 1 then Format.fprintf fmt "  (%d attempts)" r.attempts
