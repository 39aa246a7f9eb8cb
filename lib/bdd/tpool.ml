(* Fork/join task pool over work-stealing deques (DESIGN.md §Parallel
   kernel).

   One pool = [workers - 1] helper domains plus whichever domain calls
   into it: a caller that joins a pending future does not block, it runs
   other tasks (a "helping" join), so the caller is always the pool's
   extra worker.  Two kinds of callers fork here: the parallel apply/ITE
   recursions in {!Bdd}, a bounded number of tasks per operation above a
   depth cutoff, and [Mt.Runner], one root task per job.  Either way
   tasks are few and coarse, so the mutex-guarded {!Wsdeque} per slot is
   plenty; this pool is that deque's only user.

   Claim protocol.  A future holds one atomic state cell:

     Todo f  --CAS-->  Running  -->  Done v | Raised e        (executed)
     Todo f  --CAS-->  Dropped                                 (cancelled)

   Whoever wins the CAS out of [Todo] owns the thunk.  The deque entry is
   a wrapper that tries the CAS and no-ops if it lost, so a future can sit
   in a deque after being claimed inline by a joiner or dropped by
   [cancel] — stale entries cost a failed CAS and nothing else.

   [join] re-raises an exception captured in the task.  [cancel] is the
   exception-safety valve for fork/compute/join sequences: after it
   returns, the future's thunk is either finished or will never run, so
   the caller may unwind (e.g. on [Bdd.Node_limit]) without leaving an
   orphan task mutating the shared manager behind its back.

   Idle helpers park on a condition variable.  A forker always takes the
   pool lock to broadcast; a helper re-checks the fork stamp under that
   same lock before sleeping, so the classic lost-wakeup interleaving
   (fork lands between the helper's last steal attempt and its wait)
   is impossible.  Fork rate is bounded by the recursion cutoffs, so the
   lock is quiet. *)

type 'a state =
  | Todo of (unit -> 'a)
  | Running
  | Done of 'a
  | Raised of exn
  | Dropped

type 'a future = { st : 'a state Atomic.t }

(* Deque items are pre-wrapped thunks so deques of one pool can carry
   futures of every result type; a thunk answers whether its claim won. *)
type t = {
  size : int; (* helpers + the calling domain *)
  deques : (unit -> bool) Wsdeque.t array;
  stamp : int Atomic.t; (* bumped on every fork; sleep guard *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable sleepers : int; (* guarded by [lock] *)
  stop : bool Atomic.t;
  mutable domains : unit Domain.t list;
  forks : int Atomic.t;
  execs : int Atomic.t;
  steals : int Atomic.t;
}

let size t = t.size

(* Every domain — helper, caller, or a foreign joiner — addresses the
   deque array by its domain id, so pushes always have a home slot and
   pops prefer it.  Collisions (two domains mapping to one slot) are
   harmless: the deque is mutex-guarded. *)
let[@inline] home t = (Domain.self () :> int) mod Array.length t.deques

(* Run one pending task if any; the helping step of [join] and the body
   of the worker loop.  A steal counts only when its claim wins: a stale
   entry (claimed inline by a joiner, or dropped) runs nothing. *)
let try_run_one t =
  let n = Array.length t.deques in
  let h = home t in
  match Wsdeque.pop t.deques.(h) with
  | Some task ->
      ignore (task ());
      true
  | None ->
      let rec scan i =
        if i >= n then false
        else
          match Wsdeque.steal t.deques.((h + i) mod n) with
          | Some task ->
              if task () then Atomic.incr t.steals;
              true
          | None -> scan (i + 1)
      in
      scan 1

let rec worker_loop t =
  if not (Atomic.get t.stop) then begin
    let stamp = Atomic.get t.stamp in
    if try_run_one t then worker_loop t
    else begin
      Mutex.lock t.lock;
      (* sleep only if no fork landed since the failed scan: a forker
         bumps the stamp before taking this lock to broadcast *)
      if Atomic.get t.stamp = stamp && not (Atomic.get t.stop) then begin
        t.sleepers <- t.sleepers + 1;
        Condition.wait t.cond t.lock;
        t.sleepers <- t.sleepers - 1
      end;
      Mutex.unlock t.lock;
      worker_loop t
    end
  end

let create ~workers =
  let workers = max 1 workers in
  let n = max 1 workers in
  let t =
    {
      size = workers;
      deques = Array.init n (fun _ -> Wsdeque.create ());
      stamp = Atomic.make 0;
      lock = Mutex.create ();
      cond = Condition.create ();
      sleepers = 0;
      stop = Atomic.make false;
      domains = [];
      forks = Atomic.make 0;
      execs = Atomic.make 0;
      steals = Atomic.make 0;
    }
  in
  t.domains <-
    List.init (workers - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.lock;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Claim the thunk out of [Todo] and run it; true when this call ran it.
   Used by both the deque wrapper and the inline fast path of [join]. *)
let claim_and_run t fut =
  match Atomic.get fut.st with
  | Todo f as old ->
      if Atomic.compare_and_set fut.st old Running then begin
        Atomic.incr t.execs;
        (match f () with
        | v -> Atomic.set fut.st (Done v)
        | exception e -> Atomic.set fut.st (Raised e));
        true
      end
      else false
  | Running | Done _ | Raised _ | Dropped -> false

let fork t f =
  let fut = { st = Atomic.make (Todo f) } in
  Wsdeque.push t.deques.(home t) (fun () -> claim_and_run t fut);
  Atomic.incr t.forks;
  Atomic.incr t.stamp;
  if t.size > 1 then begin
    Mutex.lock t.lock;
    if t.sleepers > 0 then Condition.broadcast t.cond;
    Mutex.unlock t.lock
  end;
  fut

let rec join t fut =
  match Atomic.get fut.st with
  | Todo _ ->
      ignore (claim_and_run t fut);
      join t fut
  | Running ->
      (* help: run someone else's task rather than spin *)
      if not (try_run_one t) then Domain.cpu_relax ();
      join t fut
  | Done v -> v
  | Raised e -> raise e
  | Dropped -> invalid_arg "Tpool.join: cancelled future"

let rec cancel t fut =
  match Atomic.get fut.st with
  | Todo _ as old ->
      if not (Atomic.compare_and_set fut.st old Dropped) then cancel t fut
  | Running ->
      (* someone is executing it right now: wait (helping) until it lands
         so the caller can unwind without leaving an orphan task *)
      if not (try_run_one t) then Domain.cpu_relax ();
      cancel t fut
  | Done _ | Raised _ | Dropped -> ()

let stats t =
  (Atomic.get t.forks, Atomic.get t.execs, Atomic.get t.steals)
