(* serve: a closed loop against a serve_main child, because callers wait
   for each reply.  Two connections, one request in flight each, drive
   bench/loadgen.ml's request mix and oracle on 12-variable BDDs.  The
   BDDs are tiny, so frame decode/encode, the poll loop, the shard queue
   and session journaling dominate while kernel and core sit nearly
   idle: the twin workload for any serve-layer change. *)

let connections = 2
let requests_per_connection = 2_500
let server = ref ""
let dir = "_perfbench"
let socket = Filename.concat dir "serve.sock"
let bind = Serve.Server.Unix_path socket

(* Names of planted wrong answers the oracle did not report. *)
let planted_missed : string list ref = ref []

let spawn ~trace_files =
  let extra =
    match trace_files with
    | Some (trace, metrics) -> [ "--trace"; trace; "--metrics"; metrics ]
    | None -> []
  in
  Unix.create_process !server
    (Array.of_list ([ !server; "--socket"; socket; "--workers"; "2" ] @ extra))
    Unix.stdin Unix.stderr Unix.stderr

let rec wait_ready pid deadline =
  let answered =
    match Serve.Client.connect bind with
    | c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match Serve.Client.ping c with () -> true | exception _ -> false)
    | exception _ -> false
  in
  if not answered then begin
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "serve_main exited before answering");
    if Measure.now () > deadline then failwith "serve_main did not answer";
    Unix.sleepf 0.0005;
    wait_ready pid deadline
  end

(* SIGTERM makes the server drain and write its trace and metrics; a
   server still up after 30 s is killed. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Measure.now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ()

(* One loadgen closed loop per connection, each on its own thread;
   connection [first + i] draws its requests from the seed and its
   number. *)
let drive ~seed ~first ~requests =
  let stats = Array.init connections (fun _ -> Loadgen_mix.new_stats ()) in
  let threads =
    Array.init connections (fun i ->
        Thread.create
          (fun () ->
            try
              Loadgen_mix.connection ~seed ~mode:(Loadgen_mix.Closed requests)
                ~pipeline:1 ~deadline_ms:0 ~bind (first + i) stats.(i)
            with e ->
              Loadgen_mix.wrong stats.(i) "connection %d died: %s" i
                (Printexc.to_string e))
          ())
  in
  Array.iter Thread.join threads;
  stats

let total f stats = Array.fold_left (fun acc st -> acc + f st) 0 stats

(* The oracle must report a Count reply that is off by one.  The planted
   run's connections are numbered below every pass's. *)
let plant ~seed =
  Atomic.set Serve_hook.plant_wrong_count true;
  let st = drive ~seed ~first:(-connections) ~requests:500 in
  ignore (Serve_hook.take_calls ());
  if
    Atomic.get Serve_hook.plant_wrong_count
    || total (fun s -> s.Loadgen_mix.wrong) st = 0
  then planted_missed := [ "serve: loadgen oracle on a wrong Count" ]

(* --- the server's obs-metrics/v1 snapshot ------------------------------ *)

let field k j =
  Option.value ~default:0.0
    (Option.bind (Obs.Json.member k j) Obs.Json.to_float)

(* p95 from the power-of-two bins: the upper bound of the first bin whose
   cumulative count reaches 95% (an overestimate by at most 2x). *)
let histogram_p95 json name =
  let histograms =
    match Obs.Json.member "histograms" json with
    | Some (Obs.Json.Arr l) -> l
    | _ -> []
  in
  match
    List.find_opt
      (fun h -> Obs.Json.member "name" h = Some (Obs.Json.Str name))
      histograms
  with
  | None -> 0.0
  | Some h ->
      let bins =
        match Obs.Json.member "bins" h with
        | Some (Obs.Json.Arr b) -> b
        | _ -> []
      in
      let rec go seen = function
        | [] -> 0.0
        | b :: rest ->
            let seen = seen +. field "count" b in
            if seen >= 0.95 *. field "count" h then field "le" b
            else go seen rest
      in
      go 0.0 bins

(* --- one repetition ---------------------------------------------------- *)

let rep ~seed ~index ~traced =
  let trace_files =
    if traced then
      let file ext =
        Filename.concat dir (Printf.sprintf "serve-%d.%s" index ext)
      in
      Some (file "trace.json", file "metrics.json")
    else None
  in
  let t0 = Measure.now () in
  let pid = spawn ~trace_files in
  let setup_s, wall_s, stats, calls, cpu, server_stats, rss =
    Fun.protect
      ~finally:(fun () -> stop pid)
      (fun () ->
        wait_ready pid (t0 +. 30.0);
        (* the mix compiles the same model again when it first needs it *)
        let blif = Lazy.force Loadgen_mix.bench_blif in
        Serve_hook.sessions :=
          List.init connections (fun _ ->
              let c = Serve.Client.connect bind in
              ignore (Serve.Client.compile c ~name:"bench" ~blif);
              c);
        let setup_s = Measure.now () -. t0 in
        let cpu0 = Measure.cpu_seconds pid in
        (* Each repetition's connections are numbered after the last
           one's, so each draws new request sequences from the seed.
           With the same two sequences in every repetition, one seed's
           pair set the run's tail: over four ten-seed series, seed 6
           read op_p95_us 175-191 us every time and seeds 8 and 9
           261-295 us. *)
        let stats, wall_s =
          Measure.time (fun () ->
              drive ~seed ~first:(connections * index)
                ~requests:requests_per_connection)
        in
        let cpu = Measure.cpu_seconds pid -. cpu0 in
        let calls = Serve_hook.take_calls () in
        let server_stats =
          let c = Serve.Client.connect bind in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () -> Serve.Client.stats c)
        in
        if index = 0 then plant ~seed;
        let rss = Measure.peak_rss_mb (string_of_int pid) in
        (setup_s, wall_s, stats, calls, cpu, server_stats, rss))
  in
  let n = List.length calls in
  let rtt c = c.Serve_hook.t1 -. c.Serve_hook.t0 in
  let lat = List.map rtt calls in
  let stat k =
    float_of_int (Option.value ~default:0 (List.assoc_opt k server_stats))
  in
  let wrong = total (fun s -> s.Loadgen_mix.wrong) stats in
  let kind_p50 k =
    ( Printf.sprintf "serve.%s_p50_us" k,
      1e6
      *. Measure.median
           (List.filter_map
              (fun c -> if c.Serve_hook.kind = k then Some (rtt c) else None)
              calls) )
  in
  let traced_layers =
    match trace_files with
    | None -> []
    | Some (trace, metrics) ->
        let spans = Spans.analyse trace and m = Obs.Json.read_file metrics in
        let counter name =
          Option.value ~default:0.0
            (List.assoc_opt name (Obs.Metrics.counters_of_json m))
        in
        [
          ( "serve.server_request_us_p50",
            Measure.median (Spans.durations spans "serve.request") );
          ("serve.client_rtt_us_p50", 1e6 *. Measure.median lat);
          ( "serve.bytes_per_req",
            (counter "serve.bytes_in" +. counter "serve.bytes_out")
            /. Float.max 1.0 (counter "serve.requests") );
          ( "mt.service.queue_depth_p95",
            histogram_p95 m "mt.service.queue_depth" );
          ("self.serve_request_ms", Spans.self_ms spans [ "serve.request" ]);
          ("self.serve_call_ms", 1e3 *. Measure.sum lat);
        ]
  in
  {
    Rep.setup_s;
    wall_s;
    lat;
    attempted = n;
    failed =
      wrong
      + total (fun s -> s.Loadgen_mix.errors) stats
      + total (fun s -> s.Loadgen_mix.rejected) stats;
    rss_mb = rss;
    layers =
      List.map kind_p50 Serve_hook.kinds
      @ [
          ("serve.server_cpu_us_per_req", 1e6 *. cpu /. float_of_int (max 1 n));
          ("serve.rejected", stat "serve.rejected_overload");
          ("serve.errors", stat "serve.errors");
          ("serve.wrong", float_of_int wrong);
        ]
      @ traced_layers;
  }
