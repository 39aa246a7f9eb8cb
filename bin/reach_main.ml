(* Reachability analysis CLI.

     dune exec bin/reach_main.exe -- --circuit microprogram --engine hd \
       --method RUA --threshold 0 --quality 1.0 --pimg 20000,5000

   Circuits are either built-in generators (--circuit name, with --param
   key=value settings) or BLIF files (--blif path). *)

let builtin name params =
  let p key default =
    match List.assoc_opt key params with Some v -> v | None -> default
  in
  match name with
  | "counter" -> Generate.counter ~bits:(p "bits" 8)
  | "counter_en" -> Generate.counter_enabled ~bits:(p "bits" 8)
  | "ring" -> Generate.ring ~bits:(p "bits" 8)
  | "johnson" -> Generate.johnson ~bits:(p "bits" 8)
  | "lfsr" -> Generate.lfsr ~bits:(p "bits" 8)
  | "fifo" -> Generate.fifo_controller ~depth:(p "depth" 8)
  | "arbiter" -> Generate.arbiter ~clients:(p "clients" 4)
  | "traffic" -> Generate.traffic_light ()
  | "microsequencer" ->
      Generate.microsequencer ~addr_bits:(p "addr" 4)
        ~stack_depth:(p "stack" 2)
  | "microprogram" ->
      Generate.microprogram ~addr_bits:(p "addr" 5) ~stack_depth:(p "stack" 3)
        ~seed:(p "seed" 3)
  | "shifter" -> Generate.shifter_datapath ~width:(p "width" 8)
  | "handshake" -> Generate.handshake_pipeline ~stages:(p "stages" 8)
  | "dense" ->
      Generate.dense_controller ~latches:(p "latches" 24) ~seed:(p "seed" 11)
  | other -> failwith (Printf.sprintf "unknown circuit %s" other)

open Cmdliner

let circuit_arg =
  Arg.(
    value
    & opt string "microsequencer"
    & info [ "circuit"; "c" ] ~docv:"NAME"
        ~doc:
          "Built-in circuit generator: counter, counter_en, ring, johnson, \
           lfsr, fifo, arbiter, traffic, microsequencer, microprogram, \
           shifter, handshake, dense.")

let blif_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "blif" ] ~docv:"FILE" ~doc:"Load the circuit from a BLIF file.")

let params_arg =
  Arg.(
    value & opt_all (pair ~sep:'=' string int) []
    & info [ "param"; "p" ] ~docv:"KEY=INT"
        ~doc:"Generator parameter, e.g. --param addr=4 --param stack=2.")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("bfs", `Bfs); ("hd", `Hd) ]) `Hd
    & info [ "engine"; "e" ] ~doc:"Traversal engine: bfs or hd.")

let method_arg =
  Arg.(
    value & opt string "RUA"
    & info [ "method"; "m" ] ~doc:"Subset method for hd: HB, SP, UA, RUA, C1, C2.")

let threshold_arg =
  Arg.(value & opt int 0 & info [ "threshold"; "t" ] ~doc:"Subset size target.")

let quality_arg =
  Arg.(value & opt float 1.0 & info [ "quality"; "q" ] ~doc:"RUA quality factor.")

let pimg_arg =
  Arg.(
    value
    & opt (some (pair ~sep:',' int int)) None
    & info [ "pimg" ] ~docv:"LIMIT,TH"
        ~doc:"Partial-image subsetting: trigger node limit and threshold.")

let time_limit_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:"Abort after this many wall-clock seconds.")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"NODES"
        ~doc:"Abort when the live-node count exceeds this budget.")

let sift_arg =
  Arg.(value & flag & info [ "sift" ] ~doc:"Enable dynamic reordering.")

let cluster_arg =
  Arg.(
    value & opt int 2000
    & info [ "cluster-limit" ] ~doc:"Transition-relation cluster size limit.")

let save_reached_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-reached" ] ~docv:"FILE"
        ~doc:
          "Checkpoint the reached set to $(docv) (compact binary BDD \
           serialization, loadable into any manager).")

let check_reached_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-reached" ] ~docv:"FILE"
        ~doc:
          "Load a reached set saved by --save-reached (possibly from a run \
           with a different variable order) and report whether this run \
           computed the same set.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically checkpoint the traversal to $(docv) (checksummed, \
           written atomically); resume with --resume after a crash.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint every $(docv) iterations (with --checkpoint).")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume the traversal from a checkpoint written by --checkpoint \
           (same circuit and engine settings).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Arm seeded fault injection (chaos testing), e.g. \
           'seed=42,node_limit=0.001,cache_wipe=0.001'.  Equivalent to the \
           RESIL_FAULTS environment variable.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the traversal to $(docv) (Chrome \
           trace-event JSON; open in Perfetto or chrome://tracing).")

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for the out-of-core tiered store's cold and spill \
           files (with --hot-node-budget; default: a fresh temp directory \
           removed on exit).")

let hot_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hot-node-budget" ] ~docv:"NODES"
        ~doc:
          "Run the out-of-core engine: keep at most $(docv) nodes in the \
           in-RAM unique table and migrate the reached set to an mmap'd \
           cold tier on disk when the budget is hit.  The traversal stays \
           exact across migrations.  Overrides --engine.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run image computation on $(docv) domains sharing one manager \
           (lock-free unique table + parallel relational products).  \
           Results are bit-identical to --jobs 1.  Values above the \
           host's core count are accepted but warned about.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write an obs-metrics/v1 snapshot (traversal counters, kernel \
           gauges and histograms) to $(docv) when the run finishes.")

let dd_mode_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dd-mode" ] ~docv:"MODE"
        ~doc:
          "Also report the reached set's size in a compressed \
           representation: $(docv) is bdd, zdd, cbdd, czdd or all.  The \
           set is converted semantically (lib/dd), round-trip verified, \
           and the conversion's chain-fold counters feed the \
           bdd.stats.chain_* keys of --metrics.")

(* Partial spill / checkpoint temp files must not outlive an interrupted
   run: both registries drain idempotently, so wiring them into the
   signal handlers AND at_exit is safe. *)
let cleanup_temps () =
  let n = Resil.Checkpoint.cleanup_pending () + Store.Tiered.cleanup_files () in
  if n > 0 then Printf.eprintf "removed %d leftover temp file(s)\n%!" n

let install_cleanup () =
  let handler signal_exit_code =
    Sys.Signal_handle
      (fun _ ->
        cleanup_temps ();
        exit signal_exit_code)
  in
  (try Sys.set_signal Sys.sigint (handler 130) with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (handler 143) with Invalid_argument _ -> ());
  at_exit cleanup_temps

let run circuit blif params engine meth threshold quality pimg time_limit
    node_limit sift cluster_limit save_reached check_reached ckpt ckpt_every
    resume_path faults store_dir hot_budget trace jobs metrics dd_mode =
  install_cleanup ();
  let jobs = max 1 jobs in
  ignore (Mt.Par.warn_oversubscribed ~flag:"--jobs" jobs);
  Option.iter (fun path -> Obs.Trace.start ~out:path ()) trace;
  if metrics <> None then Obs.Metrics.set_recording true;
  (match faults with
  | None -> ()
  | Some spec -> (
      match Resil.Fault.config_of_string spec with
      | Ok c -> Resil.Fault.arm (Some c)
      | Error m -> failwith ("--faults: " ^ m)));
  let c =
    match blif with
    | Some path -> Blif.parse_file path
    | None -> builtin circuit params
  in
  Printf.printf "circuit: %s\n%!" (Circuit.stats c);
  (* --jobs > 1 needs a domain-safe manager; the striped table costs
     nothing measurable at 1 job but keep the historical private layout
     there anyway so single-job runs are byte-for-byte the old binary *)
  let man = Bdd.create ~shared:(jobs > 1) () in
  let trans = Trans.build ~cluster_limit (Compile.compile ~man c) in
  if Obs.Kernel.observing () then Obs.Kernel.attach (Trans.man trans);
  if Resil.Fault.enabled () then Resil.Fault.attach (Trans.man trans);
  let checkpoint =
    Option.map
      (fun path -> { Resil.Checkpoint.path; every = max 1 ckpt_every })
      ckpt
  in
  let resume = Option.map Resil.Checkpoint.load_reach resume_path in
  (match resume with
  | Some st ->
      Printf.printf "resuming from iteration %d (%d images)\n%!"
        st.Resil.Checkpoint.iterations st.Resil.Checkpoint.images
  | None -> ());
  (* the out-of-core engine drives its own streaming store; the pool only
     feeds the in-RAM traversal engines *)
  let with_pool fn =
    if jobs > 1 then Mt.Par.with_pool ~jobs (fun p -> fn (Some (Mt.Par.pool p)))
    else fn None
  in
  let result =
    Obs.Trace.with_span "reach" @@ fun () ->
    match (hot_budget, engine) with
    | Some budget, _ ->
        `Ooc (Ooc.run ?time_limit ?store_dir ~hot_budget:budget trans)
    | None, `Bfs ->
        with_pool @@ fun pool ->
        `Trav
          (Bfs.run ?time_limit ?node_limit ~sift ?checkpoint ?resume ?pool
             trans)
    | None, `Hd ->
        let meth =
          match Approx.method_of_string meth with
          | Some m -> m
          | None -> failwith ("unknown method " ^ meth)
        in
        with_pool @@ fun pool ->
        `Trav
          (High_density.run ?time_limit ?node_limit ~sift ?checkpoint ?resume
             ~params:{ High_density.meth; threshold; quality; pimg }
             ?pool trans)
  in
  let man = Trans.man trans in
  let reached =
    match result with
    | `Trav r ->
        Format.printf "%a@." Traversal.pp r;
        r.Traversal.reached
    | `Ooc r ->
        Format.printf "%a@." Ooc.pp r;
        Bdd.import man r.Ooc.reached
  in
  (match dd_mode with
  | None -> ()
  | Some spec ->
      let modes =
        if spec = "all" then Dd.all_modes
        else
          match Dd.mode_of_string spec with
          | Some m -> [ m ]
          | None -> failwith ("--dd-mode: unknown mode " ^ spec)
      in
      let plain = Bdd.size reached in
      (* accumulate chain counters across the converted modes and expose
         them through the kernel's stats hook, so a --metrics snapshot of
         this run carries bdd.stats.chain_folds / chain_mk *)
      let folds_total = ref 0 and mk_total = ref 0 in
      Bdd.set_chain_stats man (Some (fun () -> (!folds_total, !mk_total)));
      List.iter
        (fun mode ->
          let dman = Dd.create ~nvars:(Bdd.nvars man) ~mode () in
          let u = Dd.of_bdd dman man reached in
          if not (Bdd.equal (Dd.to_bdd dman man u) reached) then
            failwith
              (Printf.sprintf "--dd-mode %s: round trip diverged"
                 (Dd.mode_name mode));
          let folds, mk = Dd.chain_counters dman in
          folds_total := !folds_total + folds;
          mk_total := !mk_total + mk;
          let n = Dd.size u in
          Printf.printf
            "reached as %-4s: %d nodes (plain bdd %d, %.2fx)\n%!"
            (Dd.mode_name mode) n plain
            (float_of_int plain /. float_of_int (max n 1)))
        modes);
  Obs.Trace.stop ();
  Option.iter (fun path -> Printf.eprintf "trace -> %s\n%!" path) trace;
  Option.iter
    (fun path ->
      (* "bdd.stats" rather than "bdd": the kernel observer already owns
         bdd.ut_grows etc. as counters, and a gauge may not share a name *)
      Obs.Metrics.record_stats Obs.Metrics.default ~prefix:"bdd.stats"
        (Bdd.stats man);
      Obs.Metrics.write Obs.Metrics.default path;
      Printf.eprintf "metrics -> %s\n%!" path)
    metrics;
  (match save_reached with
  | None -> ()
  | Some path ->
      (* atomic + checksummed: a crash mid-write can no longer leave a
         truncated file under the target name *)
      Resil.Checkpoint.save path (Bdd.export man reached);
      Printf.printf "reached set (%d nodes) saved to %s\n%!" (Bdd.size reached)
        path);
  match check_reached with
  | None -> ()
  | Some path ->
      let previous = Bdd.import man (Resil.Checkpoint.load path) in
      if Bdd.equal previous reached then
        Printf.printf "check-reached: %s matches this run\n%!" path
      else begin
        Printf.printf "check-reached: %s DIFFERS from this run\n%!" path;
        exit 2
      end

let cmd =
  let term =
    Term.(
      const run $ circuit_arg $ blif_arg $ params_arg $ engine_arg $ method_arg
      $ threshold_arg $ quality_arg $ pimg_arg $ time_limit_arg
      $ node_limit_arg $ sift_arg $ cluster_arg $ save_reached_arg
      $ check_reached_arg $ checkpoint_arg $ checkpoint_every_arg
      $ resume_arg $ faults_arg $ store_dir_arg $ hot_budget_arg $ trace_arg
      $ jobs_arg $ metrics_arg $ dd_mode_arg)
  in
  Cmd.v
    (Cmd.info "reach_main"
       ~doc:"Symbolic reachability analysis with BDD approximations (DAC'98)")
    term

let () = exit (Cmd.eval cmd)
