(* The repository benchmark: one workload per run, generated from the
   seed, timed from outside the libraries, every output checked.

     perfbench.exe --workload (approx|reach|reach-par|serve) [--seed N]
                   --seconds S --trace (0|1) [--server PATH]
     perfbench.exe --self-test [--server PATH]
     perfbench.exe --record-states

   A run repeats set-up + one pass of fixed work + untimed checks while
   the next repetition still fits in the S seconds that started with the
   program (at least twice), and reports medians over the repetitions
   that lost little CPU time to the hypervisor (see [steal_limit]), with
   latency percentiles over the kept repetitions' ops together.  The
   last line of standard output is the result object; the line before
   it holds the run's metadata.  With --trace 1 repetitions alternate
   untraced and traced, and the result carries the per-layer metrics of
   the traced ones plus the tracing overhead.  See README.md. *)

let default_seed = 1

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("op_p50_us", "us");
    ("op_p95_us", "us");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("fail_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("circuit.compile_s", "s");
    ("reach.trans_build_s", "s");
  ]
  @ List.concat_map
      (fun m ->
        [
          (Printf.sprintf "core.%s_ms" m, "ms");
          (Printf.sprintf "core.%s_p50_us" m, "us");
          (Printf.sprintf "core.%s_nodes" m, "count");
        ])
      W_approx.methods
  @ [
      ("bdd.nodes_made", "count");
      ("bdd.cache_hit_ratio", "ratio");
      ("bdd.gc_runs", "count");
      ("bdd.ut_grows", "count");
      ("bdd.peak_unique", "count");
    ]
  @ List.concat_map
      (fun model ->
        List.concat_map
          (fun (engine, _) ->
            let key = Printf.sprintf "reach.%s.%s" model engine in
            [
              (key ^ "_s", "s");
              (key ^ ".images", "count");
              (key ^ ".peak_live_nodes", "count");
            ])
          W_reach.engines)
      W_reach.model_names
  @ List.concat_map
      (fun model ->
        [
          (Printf.sprintf "par.%s.bfs_s" model, "s");
          (Printf.sprintf "par.%s.speedup" model, "ratio");
        ])
      W_reach.model_names
  @ [
      ("par.tasks", "count");
      ("par.steal_ratio", "ratio");
      ("bdd.stripe_waits", "count");
      ("bdd.cas_retries", "count");
      ("bdd.cache_races", "count");
    ]
  @ List.map
      (fun k -> (Printf.sprintf "serve.%s_p50_us" k, "us"))
      Serve_hook.kinds
  @ [
      ("serve.server_cpu_us_per_req", "us");
      ("serve.rejected", "count");
      ("serve.errors", "count");
      ("serve.wrong", "count");
      ("serve.server_request_us_p50", "us");
      ("serve.client_rtt_us_p50", "us");
      ("serve.bytes_per_req", "bytes");
      ("mt.service.queue_depth_p95", "count");
      ("reach.image_share", "ratio");
      ("self.core_ms", "ms");
      ("self.traversal_ms", "ms");
      ("self.bfs_iter_ms", "ms");
      ("self.hd_iter_ms", "ms");
      ("self.hd_closure_ms", "ms");
      ("self.reach_image_ms", "ms");
      ("self.serve_call_ms", "ms");
      ("self.serve_request_ms", "ms");
    ]

let workloads =
  [
    ("approx", W_approx.rep);
    ("reach", W_reach.rep);
    ("reach-par", W_reach.rep_par);
    ("serve", W_serve.rep);
  ]

(* The result is one line, and a number keeps every digit it was measured
   with: the shortest decimal that reads back as the same float. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then
    let rec digits p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else digits (p + 1)
    in
    digits 15
  else "null"

let rec json = function
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.Num f -> number f
  | Obs.Json.Str _ as s -> String.trim (Obs.Json.to_string s)
  | Obs.Json.Arr l -> "[" ^ String.concat "," (List.map json l) ^ "]"
  | Obs.Json.Obj kvs ->
      let field (k, v) = json (Obs.Json.Str k) ^ ":" ^ json v in
      "{" ^ String.concat "," (List.map field kvs) ^ "}"

let num f = Obs.Json.Num f
let int n = Obs.Json.Num (float_of_int n)
let str s = Obs.Json.Str s

(* --- metadata --------------------------------------------------------- *)

let git_rev () =
  let read p = String.trim (Measure.read_file p) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | rev -> rev
      | exception Sys_error _ -> r)
  | rev -> rev

(* --- the repetition loop ---------------------------------------------- *)

(* On a shared host the hypervisor at times gives this guest's CPUs to
   other guests for seconds or minutes on end (steal), and a repetition
   measured then reads up to several times slower for no reason in the
   program.  Repetitions that lost more than this share of the machine's
   CPU time to steal are run and checked but left out of the medians;
   when fewer than a quarter of a run's repetitions (at least two) lost
   less, the medians use that many of the least stolen. *)
let steal_limit = 0.05

type taken = { index : int; traced : bool; r : Rep.t; steal : float }

let prefer ts =
  let clean = List.length (List.filter (fun t -> t.steal <= steal_limit) ts) in
  let least = max 2 ((List.length ts + 3) / 4) in
  let keep =
    List.filteri
      (fun i _ -> i < max clean least)
      (List.stable_sort (fun a b -> compare a.steal b.steal) ts)
  in
  List.filter_map (fun t -> if List.memq t keep then Some t.r else None) ts

(* Per-layer values read back from the in-process trace of one pass. *)
let trace_layers file =
  let t = Spans.analyse file in
  let self names = Spans.self_ms t names in
  let traversal = Spans.total_us t "reach.traversal" in
  [
    ("self.core_ms", self (Spans.names_with_prefix t "core."));
    ("self.traversal_ms", self [ "reach.traversal" ]);
    ("self.bfs_iter_ms", self [ "bfs.iter" ]);
    ("self.hd_iter_ms", self [ "hd.iter" ]);
    ("self.hd_closure_ms", self [ "hd.closure" ]);
    ("self.reach_image_ms", self [ "reach.image" ]);
    ( "reach.image_share",
      if traversal > 0.0 then Spans.total_us t "reach.image" /. traversal
      else 0.0 );
  ]

(* With tracing asked for, repetitions alternate untraced and traced,
   starting untraced; the first one also warms the process up and is
   left out of the tracing-overhead comparison. *)
let run_reps ~rep ~deadline ~traced ~in_process =
  let min_reps = if traced then 3 else 2 in
  let rec loop i acc =
    let traced_now = traced && i mod 2 = 1 in
    let trace_file =
      Filename.concat W_serve.dir (Printf.sprintf "perfbench-%d.trace.json" i)
    in
    (* the previous repetition's garbage and memory peak are not this
       one's *)
    Measure.settle ();
    Measure.reset_peak_rss ();
    if traced_now && in_process then Obs.Trace.start ~out:trace_file ();
    let ticks = Measure.cpu_ticks () in
    let r, dt = Measure.time (fun () -> rep ~index:i ~traced:traced_now) in
    let steal = Measure.steal_share ticks (Measure.cpu_ticks ()) in
    let r =
      if traced_now && in_process then begin
        Obs.Trace.stop ();
        { r with Rep.layers = r.Rep.layers @ trace_layers trace_file }
      end
      else r
    in
    let acc = { index = i; traced = traced_now; r; steal } :: acc in
    if i + 1 < min_reps || Measure.now () +. dt <= deadline then
      loop (i + 1) acc
    else List.rev acc
  in
  loop 0 []

let run ~workload ~seed ~seconds ~traced =
  let rep = List.assoc workload workloads in
  let in_process = workload <> "serve" in
  (* the run's time starts before its once-per-run inputs are made (by
     applying the workload to its seed), so a run takes [seconds] *)
  let deadline = Measure.now () +. seconds in
  (try Sys.mkdir W_serve.dir 0o755 with Sys_error _ -> ());
  let reps = run_reps ~rep:(rep ~seed) ~deadline ~traced ~in_process in
  let all = List.map (fun t -> t.r) reps in
  let kept = prefer reps in
  let count f = List.fold_left (fun a r -> a + f r) 0 all in
  let attempted = count (fun r -> r.Rep.attempted)
  and failed = count (fun r -> r.Rep.failed) in
  let planted =
    Checks.planted ~rng:(Random.State.make [| seed |])
    @ !W_serve.planted_missed
  in
  let per_rep f = List.map f kept in
  let percentile r p = 1e6 *. Measure.percentile r.Rep.lat p in
  let samples =
    [
      ("setup_s", per_rep (fun r -> r.Rep.setup_s));
      ("wall_s", per_rep (fun r -> r.Rep.wall_s));
      ("op_p50_us", per_rep (fun r -> percentile r 0.5));
      ("op_p95_us", per_rep (fun r -> percentile r 0.95));
      (* Memory does not depend on steal.  A repetition in this process
         starts from the heap the earlier ones grew, which the runtime
         keeps, so only the first one's peak counts; serve's server is
         new in every repetition. *)
      ( "peak_rss_mb",
        List.map
          (fun r -> r.Rep.rss_mb)
          (if in_process then [ List.hd all ] else all) );
    ]
  in
  (* A latency percentile is over every op of the kept repetitions: with
     as few ops to a pass as reach's nine, one repetition's percentile
     jumped across the gaps between neighbouring ops. *)
  let lat = List.concat_map (fun r -> r.Rep.lat) kept in
  let pooled p = 1e6 *. Measure.percentile lat p in
  let values =
    if not traced then
      List.map
        (fun (k, _) ->
          ( k,
            match k with
            | "op_p50_us" -> pooled 0.5
            | "op_p95_us" -> pooled 0.95
            | _ -> Measure.median (List.assoc k samples) ))
        end_to_end
    else begin
      let traced_reps, untraced_reps =
        let t, u = List.partition (fun t -> t.traced) reps in
        let warm = List.filter (fun t -> t.index > 0) u in
        (prefer t, prefer (if warm = [] then u else warm))
      in
      let wall rs = Measure.median (List.map (fun r -> r.Rep.wall_s) rs) in
      let layer (name, _) =
        match
          List.filter_map
            (fun r -> List.assoc_opt name r.Rep.layers)
            traced_reps
        with
        | [] -> None
        | xs -> Some (name, Measure.median xs)
      in
      List.filter_map layer per_layer
      @ [
          ( "fail_ratio",
            float_of_int failed /. float_of_int (max 1 attempted) );
          ( "trace.overhead_ratio",
            (wall traced_reps /. wall untraced_reps) -. 1.0 );
        ]
    end
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name values) in
        (name, Obs.Json.Obj [ ("value", num v); ("unit", str unit) ]))
      (if traced then per_layer else end_to_end)
  in
  let meta =
    [
      ("workload", str workload);
      ("seed", int seed);
      ("seconds", num seconds);
      ("traced", Obs.Json.Bool traced);
      ("host_cpus", int (Domain.recommended_domain_count ()));
      ("git_rev", str (git_rev ()));
      ("ocaml", str Sys.ocaml_version);
      ("reps", int (List.length reps));
      ("reps_kept", int (List.length kept));
      ("steal", Obs.Json.Arr (List.map (fun t -> num t.steal) reps));
      ("attempted", int attempted);
      ("failed", int failed);
      ("op_samples", int (List.length lat));
      ("planted_missed", Obs.Json.Arr (List.map str planted));
      ( "samples",
        Obs.Json.Obj
          (List.map
             (fun (k, xs) -> (k, Obs.Json.Arr (List.map num xs)))
             samples)
      );
      ( "spread",
        Obs.Json.Obj
          (List.map (fun (k, xs) -> (k, num (Measure.spread xs))) samples) );
    ]
  in
  print_endline (json (Obs.Json.Obj [ ("meta", Obs.Json.Obj meta) ]));
  print_endline
    (json
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = 0 && planted = []));
            ("attempted", int attempted);
            ("failed", int failed);
            ("metrics", Obs.Json.Obj metrics);
          ]))

(* --- self-test and recording ------------------------------------------ *)

(* Every checker against a planted wrong answer, plus the metric table
   against BENCHMARK.json. *)
let self_test () =
  (try Sys.mkdir W_serve.dir 0o755 with Sys_error _ -> ());
  let pid = W_serve.spawn ~trace_files:None in
  Fun.protect
    ~finally:(fun () -> W_serve.stop pid)
    (fun () ->
      W_serve.wait_ready pid (Measure.now () +. 30.0);
      W_serve.plant ~seed:default_seed);
  let listed key =
    match Obs.Json.member key (Obs.Json.read_file "BENCHMARK.json") with
    | Some (Obs.Json.Arr l) ->
        List.filter_map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> Some (n, u)
            | _ -> None)
          l
    | _ -> []
  in
  let drift key table =
    if listed key = table then []
    else [ key ^ " metrics differ from BENCHMARK.json" ]
  in
  let missed =
    Checks.planted ~rng:(Random.State.make [| default_seed |])
    @ !W_serve.planted_missed
    @ drift "end_to_end" end_to_end
    @ drift "per_layer" per_layer
  in
  List.iter (Printf.printf "self-test: MISSED %s\n") missed;
  if missed <> [] then exit 1;
  print_endline "self-test: every planted wrong answer was caught"

let record_states () =
  List.iter
    (fun (name, gen) ->
      if List.mem_assoc name W_reach.recorded_states then
        let n, dt =
          Measure.time (fun () -> W_reach.explicit_states (gen ()))
        in
        Printf.printf "%s %.0f states (%.1f s)\n%!" name n dt)
    (W_reach.models default_seed)

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (approx|reach|reach-par|serve)\n\
    \                     [--seed N] --seconds S --trace (0|1)\n\
    \                     [--server PATH]\n\
    \       perfbench.exe --self-test [--server PATH]\n\
    \       perfbench.exe --record-states";
  exit 2

let () =
  let workload = ref None and seed = ref default_seed in
  let seconds = ref None and traced = ref None and mode = ref `Run in
  let int_arg s =
    match int_of_string_opt s with Some n -> n | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_arg n;
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := Some (float_of_int (int_arg n));
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        traced := Some (t = "1");
        parse rest
    | "--server" :: p :: rest ->
        W_serve.server := p;
        parse rest
    | "--self-test" :: rest ->
        mode := `Self_test;
        parse rest
    | "--record-states" :: rest ->
        mode := `Record;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!mode, !workload, !seconds, !traced) with
  | `Self_test, _, _, _ -> self_test ()
  | `Record, _, _, _ -> record_states ()
  | `Run, Some workload, Some seconds, Some traced when seconds > 0.0 ->
      run ~workload ~seed:!seed ~seconds ~traced
  | _ -> usage ()
