(* Socket front end (see the mli for the threading model).

   One event-loop thread multiplexes every accepted connection (plus the
   listener and a self-pipe) through [Unix.select], accumulates inbound
   bytes per connection, and peels complete frames off incrementally —
   so one slow or stalled client costs a buffer, not a thread, and a
   client may pipeline frames back-to-back without waiting for replies.
   Workers write replies opportunistically (non-blocking, under the
   connection's write lock); whatever does not fit in the socket buffer
   is queued and flushed by the loop when the fd turns writable.

   Connection lifecycle is refcounted: the event loop holds one
   reference and every queued request holds one,
   so a file descriptor is only closed when the front end has let go AND
   no worker still intends to write a reply — never while an fd could be
   written, which would risk a reply landing on a recycled descriptor.

   Sessions are decoupled from connections: every accepted connection
   starts on a private anonymous session (dies with the connection,
   exactly the PR 5 behavior), but an [Attach key] frame rebinds the
   connection to a durable keyed session that lingers after disconnect
   and can be resumed — which is what makes the retrying client's
   reconnect-and-continue safe.  The registry (conns, keyed sessions,
   id index) lives under one mutex; per-session BDD state needs none
   because a session's requests are pinned to one worker domain.

   With [arena = true] every session is arena-backed: one process-wide
   shared manager, compiled models published once and viewed zero-copy
   by later sessions (see Arena and Handler's arena paths). *)

type bind = Unix_path of string | Tcp of int

type config = {
  bind : bind;
  workers : int;
  queue_depth : int;
  limits : Resil.Degrade.budget;
  max_sessions : int;
  on_dispatch : (Proto.request -> unit) option;
  par_jobs : int;
  io_timeout : float option;
  hang_timeout : float option;
  session_linger : float;
  table_capacity : int option;
  session_spool : string option;
  arena : bool;
}

let default_config =
  {
    bind = Unix_path "bdd-serve.sock";
    workers = 4;
    queue_depth = 64;
    limits = Resil.Degrade.no_budget;
    max_sessions = 1024;
    on_dispatch = None;
    par_jobs = 1;
    io_timeout = None;
    hang_timeout = None;
    session_linger = 30.;
    table_capacity = None;
    session_spool = None;
    arena = false;
  }

module M = struct
  open Obs

  let reg = Metrics.default
  let accepted = Metrics.counter reg "serve.accepted"
  let requests = Metrics.counter reg "serve.requests"
  let replies = Metrics.counter reg "serve.replies"
  let batches = Metrics.counter reg "serve.batches"
  let rejected = Metrics.counter reg "serve.rejected_overload"
  let degraded = Metrics.counter reg "serve.degraded_replies"
  let errors = Metrics.counter reg "serve.errors"
  let bytes_in = Metrics.counter reg "serve.bytes_in"
  let bytes_out = Metrics.counter reg "serve.bytes_out"
  let io_timeouts = Metrics.counter reg "serve.io_timeouts"
  let deduped = Metrics.counter reg "serve.deduped"
  let quarantined = Metrics.counter reg "serve.quarantined"
  let rebuilt = Metrics.counter reg "serve.rebuilt_sessions"
  let resumed = Metrics.counter reg "serve.resumed_sessions"
  let sessions = Metrics.gauge reg "serve.sessions"
  let request_us = Metrics.histogram reg "serve.request_us"
end

let rec_inc c n = if Obs.Metrics.recording () then Obs.Metrics.inc c n

(* Slow-consumer bound on queued outbound bytes: a peer
   that stops reading while replies pile up is cut off rather than
   allowed to hold frame memory without bound. *)
let out_cap = 2 * Proto.max_frame

type conn = {
  sid : int;
  fd : Unix.file_descr;
  mutable sess : sess;
  wlock : Mutex.t;  (* serializes frame writes; also guards refs/dead/outq *)
  mutable refs : int;
  mutable dead : bool;  (* a write failed; stop trying *)
  mutable closed : bool;
  (* outbound residue the event loop flushes *)
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;  (* total queued, for the slow-consumer cap *)
}

and sess = {
  mutable s : Session.t;  (* swapped wholesale by a rebuild *)
  mutable conn : conn option;  (* attached connection, if any *)
  mutable detached_at : float;  (* wall time of last detach (keyed only) *)
  mutable rebuilding : bool;  (* quarantined; Attach must wait *)
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  addr : Unix.sockaddr;
  pool : Mt.Service.t;
  par : Mt.Par.t option;  (* parallel kernel, shared by all shards *)
  arena : Arena.t option;  (* process-wide shared segments, if enabled *)
  lock : Mutex.t;  (* conns + keyed + by_id registries, counters *)
  conns : (int, conn) Hashtbl.t;
  keyed : (string, sess) Hashtbl.t;  (* durable sessions by attach key *)
  by_id : (int, sess) Hashtbl.t;  (* every live session by session id *)
  mutable next_sid : int;
  mutable loop_thread : Thread.t option;
  mutable loop_stop : bool;
  wake_wr : Unix.file_descr;  (* the loop's self-pipe, write end *)
  mutable housekeeper_thread : Thread.t option;
  mutable supervisor_thread : Thread.t option;
  mutable stopping : bool;
  mutable drained : bool;
  c_accepted : int Atomic.t;
  c_requests : int Atomic.t;
  c_batches : int Atomic.t;
  c_rejected : int Atomic.t;
  c_degraded : int Atomic.t;
  c_errors : int Atomic.t;
  c_io_timeouts : int Atomic.t;
  c_deduped : int Atomic.t;
  c_quarantined : int Atomic.t;
  c_rebuilt : int Atomic.t;
  c_resumed : int Atomic.t;
}

let address t = t.addr
let arena t = t.arena
let accepted t = Atomic.get t.c_accepted
let requests t = Atomic.get t.c_requests
let batches t = Atomic.get t.c_batches
let rejected t = Atomic.get t.c_rejected
let degraded_replies t = Atomic.get t.c_degraded
let errors t = Atomic.get t.c_errors
let io_timeouts t = Atomic.get t.c_io_timeouts
let deduped t = Atomic.get t.c_deduped
let quarantined t = Atomic.get t.c_quarantined
let rebuilt_sessions t = Atomic.get t.c_rebuilt
let resumed_sessions t = Atomic.get t.c_resumed
let respawns t = Mt.Service.respawns t.pool

let sessions t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.lock;
  n

let durable_sessions t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.keyed in
  Mutex.unlock t.lock;
  n

(* wake the event loop out of select *)
let wake t =
  try ignore (Unix.write_substring t.wake_wr "x" 0 1)
  with Unix.Unix_error _ -> ()

(* --- connection refcounting ------------------------------------------ *)

let retain c =
  Mutex.lock c.wlock;
  c.refs <- c.refs + 1;
  Mutex.unlock c.wlock

(* Under t.lock.  Anonymous sessions die with their connection; keyed
   sessions merely detach and start their linger clock. *)
let detach_session_locked t c =
  let sess = c.sess in
  match sess.conn with
  | Some c' when c' == c ->
      sess.conn <- None;
      sess.detached_at <- Obs.Timing.wall ();
      if Session.key sess.s = None then begin
        Hashtbl.remove t.by_id (Session.id sess.s);
        Session.close sess.s
      end
  | _ -> ()

let release t c =
  Mutex.lock c.wlock;
  c.refs <- c.refs - 1;
  let close_now = c.refs = 0 && not c.closed in
  if close_now then c.closed <- true;
  Mutex.unlock c.wlock;
  if close_now then begin
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Mutex.lock t.lock;
    Hashtbl.remove t.conns c.sid;
    detach_session_locked t c;
    Mutex.unlock t.lock;
    if Obs.Metrics.recording () then Obs.Metrics.set M.sessions (sessions t)
  end

(* --- outbound writes --------------------------------------------------- *)

let conn_broken c =
  (* the stream is desynchronized or the peer is gone: stop writing and
     wake the front end so the connection gets torn down *)
  c.dead <- true;
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Write as much of [s.[off..]] as the (non-blocking) socket accepts;
   returns the new offset.  @raise on real errors; EAGAIN just stops. *)
let rec write_some fd s off =
  let len = String.length s - off in
  if len = 0 then off
  else
    match Unix.write_substring fd s off len with
    | n -> if n = len then off + len else write_some fd s (off + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some fd s off

(* Flush the queued outbound residue (wlock held).  True when drained. *)
let flush_outq c =
  let rec go () =
    match Queue.peek_opt c.outq with
    | None -> true
    | Some s -> (
        match write_some c.fd s c.out_off with
        | off when off = String.length s ->
            ignore (Queue.pop c.outq);
            c.out_bytes <- c.out_bytes - (off - c.out_off);
            c.out_off <- 0;
            go ()
        | off ->
            c.out_bytes <- c.out_bytes - (off - c.out_off);
            c.out_off <- off;
            false
        | exception Unix.Unix_error _ ->
            conn_broken c;
            true)
  in
  go ()

let send_frame t c frame =
  Mutex.lock c.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.wlock)
    (fun () ->
      if not c.dead then begin
        rec_inc M.replies 1;
        rec_inc M.bytes_out (String.length frame);
        if Queue.is_empty c.outq then begin
          (* opportunistic direct write: most replies fit the socket
             buffer, so the common case never waits for the loop *)
          match write_some c.fd frame 0 with
          | off when off = String.length frame -> ()
          | off ->
              Queue.add frame c.outq;
              c.out_off <- off;
              c.out_bytes <- String.length frame - off;
              wake t
          | exception Unix.Unix_error _ -> conn_broken c
        end
        else begin
          Queue.add frame c.outq;
          c.out_bytes <- c.out_bytes + String.length frame;
          if c.out_bytes > out_cap then conn_broken c
        end
      end)

let send t c reply = send_frame t c (Proto.encode_reply reply)

(* --- request execution (worker side) --------------------------------- *)

let server_stats t () =
  [
    ("serve.sessions", sessions t);
    ("serve.durable_sessions", durable_sessions t);
    ("serve.accepted", accepted t);
    ("serve.requests", requests t);
    ("serve.batches", batches t);
    ("serve.rejected_overload", rejected t);
    ("serve.degraded_replies", degraded_replies t);
    ("serve.errors", errors t);
    ("serve.io_timeouts", io_timeouts t);
    ("serve.deduped", deduped t);
    ("serve.respawns", respawns t);
    ("serve.quarantined", quarantined t);
    ("serve.rebuilt_sessions", rebuilt_sessions t);
    ("serve.workers", t.cfg.workers);
    ("serve.queue_pending", Mt.Service.pending t.pool);
    ("serve.p95_request_us", Obs.Metrics.quantile M.request_us 0.95);
  ]
  @ match t.arena with Some a -> Arena.stats a | None -> []

(* Fold a request's wire deadline into the configured per-request limits:
   the tighter of the two wins. *)
let limits_for cfg (meta : Proto.meta) =
  if meta.Proto.deadline_ms <= 0 then cfg.limits
  else
    let d = float_of_int meta.Proto.deadline_ms /. 1000. in
    {
      cfg.limits with
      Resil.Degrade.deadline =
        Some
          (match cfg.limits.Resil.Degrade.deadline with
          | None -> d
          | Some d0 -> Float.min d0 d);
    }

(* [sess] is captured by the front end at submit time, NOT re-read from
   [c.sess] here: the shard was chosen from the session id at submit, so
   a pipelined request followed by [Attach] must keep executing against
   the session (and thus the worker domain) it was submitted under — the
   post-attach session runs on its own shard.  Re-reading [c.sess] would
   let the same Session be driven from two domains at once. *)
let process_one t c sess (meta : Proto.meta) req =
  Option.iter (fun f -> f req) t.cfg.on_dispatch;
  let rebuilding =
    (* read under t.lock: [quarantine] sets the flag under the same
       lock before it snapshots the journal, so any request that gets
       past this check completed before the fence and none runs
       concurrently with the rebuild *)
    Mutex.lock t.lock;
    let r = sess.rebuilding in
    Mutex.unlock t.lock;
    r
  in
  if rebuilding then begin
    Atomic.incr t.c_errors;
    rec_inc M.errors 1;
    send t c (Proto.Error "session quarantined: rebuilding, retry")
  end
  else
    let s = sess.s in
    match Session.dedup_find s ~token:meta.Proto.token with
    | Some frame ->
        (* a retry of a request we already executed: replay the recorded
           reply verbatim, never re-execute *)
        Atomic.incr t.c_deduped;
        rec_inc M.deduped 1;
        send_frame t c frame
    | None ->
        let t0 = Obs.Timing.wall () in
        let reply =
          Obs.Trace.with_span "serve.request" (fun () ->
              Handler.handle ~stats_extra:(server_stats t)
                ?pool:(Option.map Mt.Par.pool t.par)
                (limits_for t.cfg meta) s req)
        in
        (match reply with
        | Proto.Error _ ->
            Atomic.incr t.c_errors;
            rec_inc M.errors 1
        | r when Handler.degraded r ->
            Atomic.incr t.c_degraded;
            rec_inc M.degraded 1
        | _ -> ());
        (* journal successful handle-state changes so a respawned worker
           can rebuild this session; failures change no state *)
        (match reply with
        | Proto.Error _ | Proto.Overloaded -> ()
        | _ -> ( try Session.record_exchange s req reply with _ -> ()));
        let frame = Proto.encode_reply reply in
        send_frame t c frame;
        (* only successful replies enter the dedup window (mirroring
           the record_exchange guard): a transient error — deadline
           exceeded, table full — must re-execute on retry, not replay
           as a sticky failure *)
        (match reply with
        | Proto.Error _ | Proto.Overloaded -> ()
        | _ -> Session.dedup_add s ~token:meta.Proto.token frame);
        if Obs.Metrics.recording () then
          Obs.Metrics.observe M.request_us
            (int_of_float ((Obs.Timing.wall () -. t0) *. 1e6));
        Session.maybe_gc s

let process t c sess meta req () =
  Fun.protect
    ~finally:(fun () -> release t c)
    (fun () -> process_one t c sess meta req)

(* A whole batch is ONE closure on the session's shard: replies stream
   strictly in request order, each frame byte-identical to what the same
   request would have produced unpipelined. *)
let process_batch t c sess items () =
  Fun.protect
    ~finally:(fun () -> release t c)
    (fun () ->
      List.iter (fun (meta, req) -> process_one t c sess meta req) items)

(* --- session attach (event-loop side) ---------------------------------- *)

let do_attach t c key =
  Mutex.lock t.lock;
  let reply =
    if t.stopping then Proto.Error "server is draining"
    else
      match Hashtbl.find_opt t.keyed key with
      | Some sess when sess.rebuilding ->
          Proto.Error (Printf.sprintf "session %S is rebuilding, retry" key)
      | Some sess when sess.conn <> None ->
          Proto.Error (Printf.sprintf "session %S is attached elsewhere" key)
      | Some sess ->
          detach_session_locked t c;
          sess.conn <- Some c;
          c.sess <- sess;
          Atomic.incr t.c_resumed;
          rec_inc M.resumed 1;
          Proto.Attached
            {
              session = Session.id sess.s;
              resumed = true;
              handles = Session.handle_count sess.s;
            }
      | None ->
          detach_session_locked t c;
          let id = t.next_sid in
          t.next_sid <- id + 1;
          let s =
            Session.create
              ~shared:(t.cfg.par_jobs > 1)
              ?table_capacity:t.cfg.table_capacity ?arena:t.arena ~key ~id ()
          in
          let sess =
            { s; conn = Some c; detached_at = 0.; rebuilding = false }
          in
          Hashtbl.replace t.keyed key sess;
          Hashtbl.replace t.by_id id sess;
          c.sess <- sess;
          Proto.Attached { session = id; resumed = false; handles = 0 }
  in
  Mutex.unlock t.lock;
  send t c reply

(* --- frame dispatch ------------------------------------------------------ *)

let dispatch_request t c meta req =
  Atomic.incr t.c_requests;
  rec_inc M.requests 1;
  match req with
  | Proto.Ping ->
      (* liveness probe: answered even when the shards are full *)
      send t c Proto.Pong
  | Proto.Attach { key } ->
      (* connection-level: rebind the session registry entry without
         touching any worker *)
      do_attach t c key
  | req ->
      retain c;
      (* bind the request to the session it was submitted under: shard
         choice and execution must agree even if an Attach rebinds
         c.sess while this sits queued *)
      let sess = c.sess in
      let session_id = Session.id sess.s in
      let shard = session_id mod t.cfg.workers in
      let label = Printf.sprintf "s%d" session_id in
      if
        not
          (Mt.Service.submit t.pool ~shard ~label (process t c sess meta req))
      then begin
        release t c;
        Atomic.incr t.c_rejected;
        rec_inc M.rejected 1;
        send t c Proto.Overloaded
      end

let dispatch_batch t c items =
  let n = List.length items in
  Atomic.incr t.c_batches;
  rec_inc M.batches 1;
  ignore (Atomic.fetch_and_add t.c_requests n);
  rec_inc M.requests n;
  retain c;
  let sess = c.sess in
  let session_id = Session.id sess.s in
  let shard = session_id mod t.cfg.workers in
  let label = Printf.sprintf "s%d" session_id in
  (* weight = batch size: N pipelined requests must not sneak past
     admission control as if they were one *)
  if
    not
      (Mt.Service.submit t.pool ~shard ~label ~weight:n
         (process_batch t c sess items))
  then begin
    release t c;
    ignore (Atomic.fetch_and_add t.c_rejected n);
    rec_inc M.rejected n;
    (* still exactly one reply per request, in order *)
    List.iter (fun _ -> send t c Proto.Overloaded) items
  end

let dispatch_frame t c frame =
  rec_inc M.bytes_in (String.length frame);
  match Proto.decode_envelope frame with
  | exception Proto.Bad_frame m ->
      send t c (Proto.Error (Printf.sprintf "protocol error: %s" m));
      false
  | Proto.Single (meta, req) ->
      dispatch_request t c meta req;
      true
  | Proto.Batch items ->
      dispatch_batch t c items;
      true

(* --- supervision: quarantine + rebuild -------------------------------- *)

let session_of_label label =
  if String.length label > 1 && label.[0] = 's' then
    int_of_string_opt (String.sub label 1 (String.length label - 1))
  else None

(* Wait (bounded) until a marker closure submitted NOW has run on the
   shard.  The shard is a single FIFO worker, so once the marker runs,
   every request queued before the quarantine flag was raised has
   finished — and those queued after it are dropped by [process] — so
   the poisoned session's journal is quiescent on the replacement
   worker's side.  Best-effort: a full queue or a drain in progress
   bounds the wait instead of blocking the supervisor thread. *)
let fence_shard t ~shard =
  let passed = Atomic.make false in
  let deadline = Obs.Timing.wall () +. 2.0 in
  let rec submit_loop () =
    if Obs.Timing.wall () > deadline then false
    else if
      Mt.Service.submit t.pool ~shard ~label:"fence" (fun () ->
          Atomic.set passed true)
    then true
    else begin
      Thread.delay 0.005;
      submit_loop ()
    end
  in
  if submit_loop () then
    let rec wait () =
      if Atomic.get passed || Obs.Timing.wall () > deadline then ()
      else begin
        Thread.delay 0.002;
        wait ()
      end
    in
    wait ()

(* A worker died or wedged mid-request.  The poisoned request's session
   is quarantined: its attached connection is killed (the client's reply
   stream has a hole in it, so letting it continue would desynchronize
   handle mirrors), and — if the session is durable — a fresh session is
   rebuilt from the journal and swapped in for the next Attach.  Other
   sessions on the same shard are untouched: their state lives in their
   own managers and their queued requests survive in the shard queue,
   which the replacement worker drains. *)
let quarantine t ~shard ~quarantined =
  match quarantined with
  | None -> ()
  | Some label -> (
      Atomic.incr t.c_quarantined;
      rec_inc M.quarantined 1;
      match session_of_label label with
      | None -> ()
      | Some session_id -> (
          Mutex.lock t.lock;
          let sess = Hashtbl.find_opt t.by_id session_id in
          (match sess with Some sess -> sess.rebuilding <- true | None -> ());
          Mutex.unlock t.lock;
          match sess with
          | None -> ()
          | Some sess ->
              (match sess.conn with
              | Some c ->
                  Mutex.lock c.wlock;
                  c.dead <- true;
                  Mutex.unlock c.wlock;
                  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
                   with Unix.Unix_error _ -> ());
                  wake t
              | None -> ());
              let key = Session.key sess.s in
              (match key with
              | None ->
                  (* anonymous: the connection is gone, so the session is
                     unreachable — drop it *)
                  Mutex.lock t.lock;
                  Hashtbl.remove t.by_id session_id;
                  Session.close sess.s;
                  sess.rebuilding <- false;
                  Mutex.unlock t.lock
              | Some _ ->
                  (* durable: replay the journal into a fresh manager.
                     The replacement worker is already draining the shard
                     queue, so fence it first: requests queued before the
                     quarantine run to completion behind the fence marker
                     and later ones are dropped by [process] on the
                     rebuilding flag — only then is the journal quiescent
                     on the live worker's side.  (A wedged-but-alive OLD
                     domain that later unwedges can still touch the old
                     Session object; that mutates state nobody reads any
                     more — the swap below hands out a fresh one — and at
                     worst the snapshot misses its final entry.)  When a
                     spool directory is configured the journal
                     round-trips through a Resil.Checkpoint atomic
                     checksummed file — the same artifact a future
                     cold-start restore would read. *)
                  fence_shard t ~shard;
                  let entries =
                    match t.cfg.session_spool with
                    | None -> Session.journal sess.s
                    | Some dir -> (
                        let path =
                          Filename.concat dir
                            (Printf.sprintf "session-%d.journal" session_id)
                        in
                        try
                          Session.journal_save sess.s path;
                          Session.journal_load path
                        with _ -> Session.journal sess.s)
                  in
                  let fresh =
                    try
                      fst
                        (Session.rebuild
                           ~shared:(t.cfg.par_jobs > 1)
                           ?table_capacity:t.cfg.table_capacity
                           ?arena:t.arena ?key ~id:session_id entries)
                    with _ ->
                      Session.create
                        ~shared:(t.cfg.par_jobs > 1)
                        ?table_capacity:t.cfg.table_capacity ?arena:t.arena
                        ?key ~id:session_id ()
                  in
                  Mutex.lock t.lock;
                  let stale = sess.s in
                  sess.s <- fresh;
                  sess.conn <- None;
                  sess.detached_at <- Obs.Timing.wall ();
                  sess.rebuilding <- false;
                  Mutex.unlock t.lock;
                  Session.close stale;
                  Atomic.incr t.c_rebuilt;
                  rec_inc M.rebuilt 1)))

(* --- housekeeping ------------------------------------------------------ *)

let reap_lingering t =
  let now = Obs.Timing.wall () in
  Mutex.lock t.lock;
  let expired =
    Hashtbl.fold
      (fun key sess acc ->
        if
          sess.conn = None && (not sess.rebuilding)
          && now -. sess.detached_at > t.cfg.session_linger
        then (key, sess) :: acc
        else acc)
      t.keyed []
  in
  List.iter
    (fun (key, sess) ->
      Hashtbl.remove t.keyed key;
      Hashtbl.remove t.by_id (Session.id sess.s);
      Session.close sess.s)
    expired;
  Mutex.unlock t.lock

let housekeeper t () =
  while not t.stopping do
    Thread.delay 0.1;
    if not t.stopping then reap_lingering t
  done

(* --- connection setup ---------------------------------------------------- *)

let accept_conn t fd =
  Mutex.lock t.lock;
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let too_many = Hashtbl.length t.conns >= t.cfg.max_sessions in
  Mutex.unlock t.lock;
  if too_many || t.stopping then begin
    (try Proto.write_frame fd (Proto.encode_reply Proto.Overloaded)
     with Unix.Unix_error _ | Proto.Bad_frame _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None
  end
  else begin
    (* the event loop owns stall detection (its last-receive clock) *)
    Unix.set_nonblock fd;
    let s =
      Session.create
        ~shared:(t.cfg.par_jobs > 1)
        ?table_capacity:t.cfg.table_capacity ?arena:t.arena ~id:sid ()
    in
    let sess = { s; conn = None; detached_at = 0.; rebuilding = false } in
    let c =
      {
        sid;
        fd;
        sess;
        wlock = Mutex.create ();
        refs = 1;
        dead = false;
        closed = false;
        outq = Queue.create ();
        out_off = 0;
        out_bytes = 0;
      }
    in
    sess.conn <- Some c;
    Mutex.lock t.lock;
    Hashtbl.replace t.conns sid c;
    Hashtbl.replace t.by_id sid sess;
    Mutex.unlock t.lock;
    Atomic.incr t.c_accepted;
    rec_inc M.accepted 1;
    if Obs.Metrics.recording () then Obs.Metrics.set M.sessions (sessions t);
    Some c
  end

(* --- the event loop ------------------------------------------------------ *)

(* Per-connection event-loop state.  Only the loop thread touches it, so
   no lock: [inbuf] accumulates raw bytes until whole frames can be
   peeled off; [last_rx] drives the io_timeout stall check; [closing]
   means "flush outbound, then tear down" (set after a protocol error:
   answer once, then hang up). *)
type pconn = {
  pc : conn;
  inbuf : Buffer.t;
  mutable last_rx : float;
  mutable closing : bool;
  mutable gone : bool;
}

let poll_loop t wake_rd () =
  let by_fd : (Unix.file_descr, pconn) Hashtbl.t = Hashtbl.create 64 in
  let rbuf = Bytes.create 65536 in
  let teardown p =
    if not p.gone then begin
      p.gone <- true;
      Hashtbl.remove by_fd p.pc.fd;
      release t p.pc (* the loop's reference *)
    end
  in
  let protocol_error p m =
    (* answer once, then hang up — after the reply has drained *)
    send t p.pc (Proto.Error (Printf.sprintf "protocol error: %s" m));
    p.closing <- true;
    Buffer.clear p.inbuf
  in
  (* Peel complete frames off the inbound accumulator.  The header is
     peeked incrementally (9 bytes), so a stalled peer costs exactly the
     bytes it sent; a malformed header can never resync and closes the
     connection after one typed error. *)
  let parse_frames p =
    let again = ref true in
    while !again && not (p.closing || p.pc.dead) do
      let have = Buffer.length p.inbuf in
      let head = Buffer.sub p.inbuf 0 (min have 16) in
      match Proto.frame_size head with
      | exception Proto.Bad_frame m ->
          protocol_error p m;
          again := false
      | None -> again := false
      | Some total ->
          if have < total then again := false
          else begin
            let all = Buffer.contents p.inbuf in
            let frame = String.sub all 0 total in
            Buffer.clear p.inbuf;
            Buffer.add_substring p.inbuf all total (have - total);
            if not (dispatch_frame t p.pc frame) then begin
              (* typed error already sent; hang up once it drains *)
              p.closing <- true;
              Buffer.clear p.inbuf;
              again := false
            end
          end
    done
  in
  let readable p =
    match Unix.read p.pc.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> teardown p (* EOF — mid-frame or not, the stream is over *)
    | n ->
        p.last_rx <- Obs.Timing.wall ();
        Buffer.add_subbytes p.inbuf rbuf 0 n;
        parse_frames p
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> teardown p
  in
  let writable p =
    Mutex.lock p.pc.wlock;
    ignore (flush_outq p.pc);
    Mutex.unlock p.pc.wlock
  in
  let accept_burst () =
    let rec go () =
      match Unix.accept t.listener with
      | fd, _ ->
          (match accept_conn t fd with
          | None -> ()
          | Some c ->
              let p =
                {
                  pc = c;
                  inbuf = Buffer.create 256;
                  last_rx = Obs.Timing.wall ();
                  closing = false;
                  gone = false;
                }
              in
              Hashtbl.replace by_fd c.fd p);
          go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> () (* listener closed: draining *)
    in
    go ()
  in
  while not t.loop_stop do
    (* build interest sets; collect already-dead / fully-flushed-closing
       connections for teardown outside the iteration *)
    let rds = ref [ wake_rd ] in
    if not t.stopping then rds := t.listener :: !rds;
    let wrs = ref [] and doomed = ref [] in
    Hashtbl.iter
      (fun _ p ->
        Mutex.lock p.pc.wlock;
        let dead = p.pc.dead and pending = p.pc.out_bytes > 0 in
        Mutex.unlock p.pc.wlock;
        if dead || (p.closing && not pending) then doomed := p :: !doomed
        else begin
          if not p.closing then rds := p.pc.fd :: !rds;
          if pending then wrs := p.pc.fd :: !wrs
        end)
      by_fd;
    List.iter teardown !doomed;
    (match Unix.select !rds !wrs [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> Thread.delay 0.01
    | r, w, _ ->
        if List.memq wake_rd r then (
          try ignore (Unix.read wake_rd rbuf 0 (Bytes.length rbuf))
          with Unix.Unix_error _ -> ());
        if (not t.stopping) && List.memq t.listener r then accept_burst ();
        List.iter
          (fun fd ->
            match Hashtbl.find_opt by_fd fd with
            | Some p when not p.gone -> writable p
            | _ -> ())
          w;
        List.iter
          (fun fd ->
            if fd != wake_rd && fd != t.listener then
              match Hashtbl.find_opt by_fd fd with
              | Some p when not p.gone -> readable p
              | _ -> ())
          r);
    (* stall detection: any peer silent for longer than io_timeout is
       timed out and dropped *)
    match t.cfg.io_timeout with
    | Some secs when secs > 0. ->
        let now = Obs.Timing.wall () in
        let stalled =
          Hashtbl.fold
            (fun _ p acc ->
              if (not p.gone) && now -. p.last_rx > secs then p :: acc else acc)
            by_fd []
        in
        List.iter
          (fun p ->
            Atomic.incr t.c_io_timeouts;
            rec_inc M.io_timeouts 1;
            teardown p)
          stalled
    | _ -> ()
  done;
  (* loop shutdown: flush whatever replies are still queued (bounded,
     best-effort), then drop the loop's references *)
  let deadline = Obs.Timing.wall () +. 1.0 in
  let rec final_flush () =
    let pending = ref false in
    Hashtbl.iter
      (fun _ p ->
        Mutex.lock p.pc.wlock;
        if (not p.pc.dead) && not (flush_outq p.pc) then pending := true;
        Mutex.unlock p.pc.wlock)
      by_fd;
    if !pending && Obs.Timing.wall () < deadline then begin
      Thread.delay 0.01;
      final_flush ()
    end
  in
  final_flush ();
  let all = Hashtbl.fold (fun _ p acc -> p :: acc) by_fd [] in
  List.iter teardown all;
  try Unix.close wake_rd with Unix.Unix_error _ -> ()

(* --- lifecycle -------------------------------------------------------- *)

(* Bind a Unix socket path, surviving a stale file from a crashed
   predecessor: on EADDRINUSE, probe-connect — a live server answers
   (keep hands off, re-raise), a dead one gives ECONNREFUSED (unlink the
   corpse and bind for real).  Never unlink blindly: that would steal
   the path from a running server. *)
let bind_unix fd path addr =
  match Unix.bind fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
      let live =
        match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | exception Unix.Unix_error _ -> true (* cannot probe: assume live *)
        | probe -> (
            Fun.protect
              ~finally:(fun () ->
                try Unix.close probe with Unix.Unix_error _ -> ())
              (fun () ->
                match Unix.connect probe addr with
                | () -> true
                | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false
                | exception Unix.Unix_error _ -> true))
      in
      if live then
        raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
      else begin
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.bind fd addr
      end

let start cfg =
  (* checked before any socket exists, so a bad config binds nothing *)
  if cfg.workers < 1 then invalid_arg "Serve.Server: workers < 1";
  if cfg.queue_depth < 1 then invalid_arg "Serve.Server: queue_depth < 1";
  (match cfg.table_capacity with
  | Some c when c < 1 -> invalid_arg "Serve.Server: table_capacity < 1"
  | _ -> ());
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener, addr =
    match cfg.bind with
    | Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let addr = Unix.ADDR_UNIX path in
        (try bind_unix fd path addr
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (fd, addr)
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (fd, Unix.getsockname fd)
  in
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  let t =
    {
      cfg;
      listener;
      addr;
      pool =
        Mt.Service.create ~label:"serve" ~workers:cfg.workers
          ~queue_depth:cfg.queue_depth ();
      par =
        (if cfg.par_jobs > 1 then Some (Mt.Par.create ~jobs:cfg.par_jobs ())
         else None);
      arena =
        (if cfg.arena then
           Some (Arena.create ?table_capacity:cfg.table_capacity ())
         else None);
      lock = Mutex.create ();
      conns = Hashtbl.create 64;
      keyed = Hashtbl.create 16;
      by_id = Hashtbl.create 64;
      next_sid = 0;
      loop_thread = None;
      loop_stop = false;
      wake_wr;
      housekeeper_thread = None;
      supervisor_thread = None;
      stopping = false;
      drained = false;
      c_accepted = Atomic.make 0;
      c_requests = Atomic.make 0;
      c_batches = Atomic.make 0;
      c_rejected = Atomic.make 0;
      c_degraded = Atomic.make 0;
      c_errors = Atomic.make 0;
      c_io_timeouts = Atomic.make 0;
      c_deduped = Atomic.make 0;
      c_quarantined = Atomic.make 0;
      c_rebuilt = Atomic.make 0;
      c_resumed = Atomic.make 0;
    }
  in
  t.loop_thread <- Some (Thread.create (poll_loop t wake_rd) ());
  t.housekeeper_thread <- Some (Thread.create (housekeeper t) ());
  (match cfg.hang_timeout with
  | Some h when h > 0. ->
      t.supervisor_thread <-
        Some
          (Mt.Service.supervise t.pool
             ~interval:(Float.max 0.01 (h /. 4.))
             ~hang_timeout:h ~on_respawn:(quarantine t))
  | _ -> ());
  t

(* --- chaos probes ------------------------------------------------------ *)

let inject_worker_hang t ~shard ~seconds =
  Mt.Service.submit t.pool ~shard ~label:"chaos-hang" (fun () ->
      Thread.delay seconds)

let inject_worker_kill t ~shard =
  Mt.Service.submit t.pool ~shard ~label:"chaos-kill" (fun () ->
      raise Mt.Service.Poison)

let drain t =
  let already =
    Mutex.lock t.lock;
    let a = t.drained in
    if not a then t.stopping <- true;
    Mutex.unlock t.lock;
    a
  in
  if not already then begin
    (* 1. stop accepting: [stopping] drops the listener from the loop's
       interest set at its next iteration *)
    wake t;
    (* 2. answer everything queued; the loop keeps flushing replies while
       the pool drains *)
    Mt.Service.drain t.pool;
    Option.iter Thread.join t.supervisor_thread;
    Option.iter Mt.Par.shutdown t.par;
    Option.iter Thread.join t.housekeeper_thread;
    (* 3. stop the loop: it final-flushes outbound residue and releases
       every connection on its way out *)
    t.loop_stop <- true;
    wake t;
    Option.iter Thread.join t.loop_thread;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (match t.cfg.bind with
    | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (try Unix.close t.wake_wr with Unix.Unix_error _ -> ());
    (* worker domains are parked: the shared table is quiescent, so the
       arena can finally sweep unreferenced segment nodes *)
    (match t.arena with Some a -> ignore (Arena.reclaim a ()) | None -> ());
    Mutex.lock t.lock;
    t.drained <- true;
    Mutex.unlock t.lock
  end

let run t ~stop =
  let rec wait () =
    if stop () then ()
    else begin
      Thread.delay 0.1;
      wait ()
    end
  in
  wait ();
  drain t
