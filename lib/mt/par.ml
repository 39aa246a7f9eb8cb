(* Parallel-kernel pool handle: a Tpool plus metrics plumbing.

   Mt.Runner parallelizes *across* jobs, each on a private manager; Par
   hands a set of workers to *one* large operation on a shared manager
   instead.  The two compose — a Runner job may create a Par pool for an
   oversized request, a Tpool task creating and joining a second Tpool —
   but nothing here depends on the runner.

   Fork/steal counts accumulate inside the Tpool; [shutdown] exports them
   to the [mt.par_tasks] / [mt.par_steals] counters of the default
   metrics registry, so metrics track pool activity without the pool
   having to know about metrics on its hot path. *)

type t = {
  pool : Tpool.t;
  par_tasks : Obs.Metrics.counter;
  par_steals : Obs.Metrics.counter;
}

let create ~jobs () =
  {
    pool = Tpool.create ~workers:jobs;
    par_tasks = Obs.Metrics.counter Obs.Metrics.default "mt.par_tasks";
    par_steals = Obs.Metrics.counter Obs.Metrics.default "mt.par_steals";
  }

let pool t = t.pool

let shutdown t =
  if Obs.Metrics.recording () then begin
    let forks, _execs, steals = Tpool.stats t.pool in
    Obs.Metrics.inc t.par_tasks forks;
    Obs.Metrics.inc t.par_steals steals
  end;
  Tpool.shutdown t.pool

let with_pool ~jobs fn =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> fn t)

let recommended () = Domain.recommended_domain_count ()

let warn_oversubscribed ~flag jobs =
  let rc = recommended () in
  if jobs > rc then begin
    Printf.eprintf
      "warning: %s %d exceeds the %d domain(s) this host can run in \
       parallel; extra workers add contention, not speedup\n\
       %!"
      flag jobs rc;
    false
  end
  else true
