(* Mutex-guarded work-stealing deque.

   The owner pushes and pops at the bottom (newest first, cache-warm);
   thieves steal from the top (oldest first), the classic work-stealing
   discipline.  Units of work in this codebase are coarse — whole
   benchmark trials, reachability runs, or forked cofactor subtrees above
   the parallel-apply cutoff — so one uncontended lock per operation is
   noise next to the work itself and buys us none of the subtlety of a
   Chase–Lev buffer.  [steal] pays O(n) to reach the oldest element; n is
   bounded by the tasks forked onto one slot — at most a run's job count
   when [Mt.Runner] forks every job from its caller.

   {!Tpool} is its only user; the job runner reaches it through that
   pool. *)

type 'a t = { lock : Mutex.t; mutable items : 'a list (* head = bottom *) }

let create () = { lock = Mutex.create (); items = [] }

let locked d f =
  Mutex.lock d.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.lock) f

let push d x = locked d (fun () -> d.items <- x :: d.items)

let pop d =
  locked d (fun () ->
      match d.items with
      | [] -> None
      | x :: rest ->
          d.items <- rest;
          Some x)

let steal d =
  locked d (fun () ->
      match List.rev d.items with
      | [] -> None
      | oldest :: rest ->
          d.items <- List.rev rest;
          Some oldest)
