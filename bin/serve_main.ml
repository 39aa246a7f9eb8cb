(* The BDD service daemon.

     serve_main.exe --socket PATH | --port N
                    [--workers N] [--queue-depth N] [--par-jobs N]
                    [--arena]
                    [--request-node-budget N] [--request-deadline SECS]
                    [--max-sessions N] [--io-timeout SECS]
                    [--hang-timeout SECS] [--session-linger SECS]
                    [--table-capacity N] [--session-spool DIR]
                    [--hang-worker-after SECS]
                    [--metrics FILE] [--trace FILE] [--faults SPEC]

   Serves until SIGTERM/SIGINT, then drains gracefully: stops accepting,
   answers everything queued, joins the workers, and only then writes the
   observability artifacts and exits 0.  `--faults` arms Resil.Fault
   injection process-wide (including the wire probes) — the chaos
   contract is that injected crashes surface as Error replies or
   Degraded certificates, never as a server exit.  `--hang-worker-after`
   wedges one worker domain mid-run so soak tests can watch the
   supervisor (`--hang-timeout`) quarantine and respawn it.

   A leftover socket file from a crashed predecessor is probed and swept
   (Serve.Server.start); the SIGINT/at_exit handlers sweep it and any
   in-flight checkpoint temp files on the way out, like reach_main does
   for its artifacts. *)

let usage () =
  prerr_endline
    "usage: serve_main (--socket PATH | --port N) [--workers N]\n\
    \       [--queue-depth N] [--par-jobs N] [--arena]\n\
    \       [--request-node-budget N]\n\
    \       [--request-deadline SECS] [--max-sessions N]\n\
    \       [--io-timeout SECS] [--hang-timeout SECS]\n\
    \       [--session-linger SECS] [--table-capacity N]\n\
    \       [--session-spool DIR] [--hang-worker-after SECS]\n\
    \       [--metrics FILE] [--trace FILE] [--faults SPEC]";
  exit 2

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "serve_main: %s\n" msg;
      exit 2)
    fmt

let pos_int flag s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ -> fail "%s wants a positive integer, got %s" flag s

let pos_float flag s =
  match float_of_string_opt s with
  | Some d when d > 0.0 -> d
  | _ -> fail "%s wants positive seconds, got %s" flag s

let () =
  let bind = ref None
  and workers = ref Serve.Server.default_config.workers
  and queue_depth = ref Serve.Server.default_config.queue_depth
  and node_budget = ref None
  and deadline = ref None
  and max_sessions = ref Serve.Server.default_config.max_sessions
  and par_jobs = ref Serve.Server.default_config.par_jobs
  and arena = ref false
  and io_timeout = ref (Some 30.0)
  and hang_timeout = ref None
  and session_linger = ref Serve.Server.default_config.session_linger
  and table_capacity = ref None
  and session_spool = ref None
  and hang_worker_after = ref None
  and metrics = ref None
  and trace = ref None
  and faults = ref None in
  let rec parse = function
    | [] -> ()
    | "--socket" :: path :: rest ->
        bind := Some (Serve.Server.Unix_path path);
        parse rest
    | "--port" :: p :: rest ->
        (match int_of_string_opt p with
        | Some n when n >= 0 && n < 65536 -> bind := Some (Serve.Server.Tcp n)
        | _ -> fail "--port wants 0..65535, got %s" p);
        parse rest
    | "--workers" :: n :: rest ->
        workers := pos_int "--workers" n;
        parse rest
    | "--queue-depth" :: n :: rest ->
        queue_depth := pos_int "--queue-depth" n;
        parse rest
    | "--request-node-budget" :: n :: rest ->
        node_budget := Some (pos_int "--request-node-budget" n);
        parse rest
    | "--request-deadline" :: s :: rest ->
        deadline := Some (pos_float "--request-deadline" s);
        parse rest
    | "--max-sessions" :: n :: rest ->
        max_sessions := pos_int "--max-sessions" n;
        parse rest
    | "--par-jobs" :: n :: rest ->
        par_jobs := pos_int "--par-jobs" n;
        parse rest
    | "--arena" :: rest ->
        arena := true;
        parse rest
    | "--io-timeout" :: s :: rest ->
        (* 0 disables: an idle connection is never dropped *)
        (match float_of_string_opt s with
        | Some d when d = 0.0 -> io_timeout := None
        | Some d when d > 0.0 -> io_timeout := Some d
        | _ -> fail "--io-timeout wants seconds (0 disables), got %s" s);
        parse rest
    | "--hang-timeout" :: s :: rest ->
        hang_timeout := Some (pos_float "--hang-timeout" s);
        parse rest
    | "--session-linger" :: s :: rest ->
        session_linger := pos_float "--session-linger" s;
        parse rest
    | "--table-capacity" :: n :: rest ->
        table_capacity := Some (pos_int "--table-capacity" n);
        parse rest
    | "--session-spool" :: dir :: rest ->
        session_spool := Some dir;
        parse rest
    | "--hang-worker-after" :: s :: rest ->
        hang_worker_after := Some (pos_float "--hang-worker-after" s);
        parse rest
    | "--metrics" :: path :: rest ->
        metrics := Some path;
        parse rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse rest
    | "--faults" :: spec :: rest ->
        (match Resil.Fault.config_of_string spec with
        | Ok cfg -> faults := Some cfg
        | Error m -> fail "--faults: %s" m);
        parse rest
    | arg :: _ ->
        Printf.eprintf "serve_main: unknown argument %s\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let bind = match !bind with Some b -> b | None -> usage () in
  (match !session_spool with
  | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
      fail "--session-spool: %s is not a directory" dir
  | _ -> ());
  (* the shard workers and the parallel kernel both want cores; warn when
     either — or their combination — oversubscribes the host *)
  ignore (Mt.Par.warn_oversubscribed ~flag:"--workers" !workers);
  if !par_jobs > 1 then begin
    ignore (Mt.Par.warn_oversubscribed ~flag:"--par-jobs" !par_jobs);
    if !workers * !par_jobs > Mt.Par.recommended () then
      Printf.eprintf
        "warning: --workers %d x --par-jobs %d may oversubscribe the %d \
         core(s) available\n\
         %!"
        !workers !par_jobs
        (Mt.Par.recommended ())
  end;
  Resil.Fault.arm !faults;
  if !metrics <> None then Obs.Metrics.set_recording true;
  Option.iter (fun out -> Obs.Trace.start ~out ()) !trace;
  let stop_flag = Atomic.make false in
  let on_signal _ = Atomic.set stop_flag true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* sweep our on-disk footprint on any exit path: the socket file (run
     normally unlinks it, but a crash or signal between bind and drain
     must not leave a stale socket) and any in-flight checkpoint temp
     files from session-journal spooling — the reach_main discipline *)
  let cleanup () =
    ignore (Resil.Checkpoint.cleanup_pending ());
    match bind with
    | Serve.Server.Unix_path path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Serve.Server.Tcp _ -> ()
  in
  at_exit cleanup;
  let cfg =
    {
      Serve.Server.bind;
      arena = !arena;
      workers = !workers;
      queue_depth = !queue_depth;
      limits =
        { Serve.Handler.node_budget = !node_budget; deadline = !deadline };
      max_sessions = !max_sessions;
      on_dispatch = None;
      par_jobs = !par_jobs;
      io_timeout = !io_timeout;
      hang_timeout = !hang_timeout;
      session_linger = !session_linger;
      table_capacity = !table_capacity;
      session_spool = !session_spool;
    }
  in
  let server = Serve.Server.start cfg in
  (match Serve.Server.address server with
  | Unix.ADDR_UNIX path -> Printf.printf "serve_main: listening on %s\n%!" path
  | Unix.ADDR_INET (_, port) ->
      Printf.printf "serve_main: listening on 127.0.0.1:%d\n%!" port);
  (* chaos: wedge worker 0 after the given delay, from a side thread so
     the main serve loop is untouched.  The hang is bounded (3x the hang
     timeout, or 5s) so unsupervised runs still drain. *)
  Option.iter
    (fun after ->
      ignore
        (Thread.create
           (fun () ->
             Thread.delay after;
             if not (Atomic.get stop_flag) then begin
               let seconds =
                 match !hang_timeout with
                 | Some h -> Float.max 1.0 (3.0 *. h)
                 | None -> 5.0
               in
               let ok =
                 Serve.Server.inject_worker_hang server ~shard:0 ~seconds
               in
               Printf.printf "serve_main: chaos worker hang injected=%b\n%!" ok
             end)
           ()))
    !hang_worker_after;
  Serve.Server.run server ~stop:(fun () -> Atomic.get stop_flag);
  Option.iter (fun path -> Obs.Metrics.write Obs.Metrics.default path) !metrics;
  if !trace <> None then Obs.Trace.stop ();
  Printf.printf
    "serve_main: drained (accepted=%d requests=%d batches=%d rejected=%d \
     degraded=%d errors=%d io_timeouts=%d deduped=%d respawns=%d \
     quarantined=%d rebuilt=%d faults_injected=%d)\n\
     %!"
    (Serve.Server.accepted server)
    (Serve.Server.requests server)
    (Serve.Server.batches server)
    (Serve.Server.rejected server)
    (Serve.Server.degraded_replies server)
    (Serve.Server.errors server)
    (Serve.Server.io_timeouts server)
    (Serve.Server.deduped server)
    (Serve.Server.respawns server)
    (Serve.Server.quarantined server)
    (Serve.Server.rebuilt_sessions server)
    (Resil.Fault.injected ());
  Option.iter
    (fun a ->
      let v k = try List.assoc k (Arena.stats a) with Not_found -> 0 in
      Printf.printf
        "serve_main: arena (published=%d hits=%d attaches=%d live_segments=%d \
         reclaimed=%d)\n\
         %!"
        (v "arena.published") (v "arena.hits") (v "arena.attaches")
        (Arena.live_segments a) (v "arena.reclaimed"))
    (Serve.Server.arena server)
