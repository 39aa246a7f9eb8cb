(* Benchmark harness: regenerates every table of the paper's evaluation
   (Section 4) on the synthetic substitutes described in DESIGN.md, plus
   ablation sweeps and Bechamel micro-benchmarks of the kernels.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- one experiment
       (table1 | table2 | table3 | table4 | ablations | kernels | smoke | ooc)

   Flags:
     --jobs N   worker domains for the pool sweeps and the table-1 engine
                fan-out (default: Domain.recommended_domain_count).  Table
                contents are identical for every N; only wall time changes.
     --smoke    a seconds-long slice of the suite that still exercises the
                parallel path end to end (for CI; same as the "smoke"
                experiment name).
     --store-dir DIR        host the "ooc" experiment's cold/spill files
                in DIR instead of a fresh temp directory.
     --hot-node-budget N    hot unique-table ceiling for the "ooc"
                experiment (default: a quarter of the oracle's headroom).
     --trace FILE    record a Chrome trace-event span trace (Perfetto);
                one lane per worker domain.
     --metrics FILE  write an obs-metrics/v1 snapshot of the run.
                Both write their "-> FILE" note to stderr, so stdout stays
                byte-identical with and without them (the smoke-determinism
                contract that `make check` diffs across --jobs values).

   Absolute numbers differ from the paper (different circuits, different
   hardware, simulator substrate); the *shape* -- who wins, by what rough
   factor -- is what EXPERIMENTS.md tracks. *)

let jobs = ref (Mt.Par.recommended ())

(* --faults SPEC arms injection and flips the runner fan-outs to
   supervised retries; stdout stays byte-identical when unused *)
let retry = ref Mt.Runner.no_retry

(* out-of-core knobs for the "ooc" experiment: where the tiered store
   puts its level/spill files, and the hot unique-table ceiling *)
let store_dir = ref None
let hot_budget = ref None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* ------------------------------------------------------------------ *)
(* Table 1: reachability analysis with BDD approximations              *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  name : string;
  circuit : Circuit.t;
  rua : High_density.params;
  sp : High_density.params;
  budget : float; (* wall-clock seconds granted to each engine *)
}

let table1_rows () =
  let hd = High_density.default in
  [
    {
      name = "s3330-like";
      circuit = Generate.handshake_pipeline ~stages:14;
      rua = { hd with threshold = 0; quality = 0.9 };
      sp =
        {
          hd with
          meth = Approx.SP;
          threshold = 1000;
          pimg = Some (100000, 40000);
        };
      budget = 240.;
    };
    {
      name = "s1269-like";
      circuit = Generate.shifter_datapath ~width:12;
      rua = { hd with threshold = 0; quality = 1.0 };
      sp =
        {
          hd with
          meth = Approx.SP;
          threshold = 500;
          pimg = Some (100000, 40000);
        };
      budget = 240.;
    };
    {
      name = "s5378-like";
      circuit = Generate.dense_controller ~latches:26 ~seed:11;
      rua = { hd with threshold = 2000; quality = 1.4 };
      sp = { hd with meth = Approx.SP; threshold = 1500 };
      budget = 240.;
    };
    {
      name = "am2910-like";
      circuit = Generate.microsequencer ~addr_bits:6 ~stack_depth:2;
      rua = { hd with threshold = 0; quality = 1.0 };
      sp = { hd with meth = Approx.SP; threshold = 1000 };
      budget = 240.;
    };
  ]

(* the 1998-sized memory ceiling of DESIGN.md *)
let table1_node_limit = 1_500_000

let pimg_cell = function
  | None -> "NA"
  | Some (a, b) -> Printf.sprintf "%d/%d" a b

(* what an engine job sends back across the domain boundary: plain data,
   never a BDD from the worker's private manager *)
type engine_cell = { exact : bool; wall : float; states : float }

let result_cell budget = function
  | None -> "err"
  | Some c ->
      if c.exact then Printf.sprintf "%.1f" c.wall
      else if c.wall < budget then "mem"
      else Printf.sprintf ">%.0f" budget

(* The three engines of one row, as runner jobs over a relation that was
   built once in the calling domain and is imported per worker. *)
let table1_engines row exported =
  let engine label run =
    Mt.Runner.job ~label:(row.name ^ "." ^ label) (fun man ->
        let trans = Trans.import man exported in
        let r, wall = Obs.Timing.time (fun () -> run trans) in
        { exact = r.Traversal.exact; wall; states = r.Traversal.states })
  in
  [
    engine "bfs" (fun trans ->
        Bfs.run ~time_limit:row.budget ~node_limit:table1_node_limit trans);
    engine "rua" (fun trans ->
        High_density.run ~time_limit:row.budget ~node_limit:table1_node_limit
          ~params:row.rua trans);
    engine "sp" (fun trans ->
        High_density.run ~time_limit:row.budget ~node_limit:table1_node_limit
          ~params:row.sp trans);
  ]

let table1 () =
  section "Table 1: reachability analysis using BDD approximations";
  note
    "(paper: s3330 BFS 3204s vs RUA 562s / SP 1351s; s1269 52691s vs 290/525;";
  note
    " s5378opt 1454s vs 1140/575; am2910 BFS >2 weeks vs RUA 217s / SP 224s)";
  note
    "all engines run under a %d-node ceiling (the 1998 memory budget of"
    table1_node_limit;
  note
    " DESIGN.md); 'mem' = died on the ceiling, '>N' = exceeded the time budget";
  (* build each machine's partitioned relation once, export it, and fan the
     3 engines x 4 machines out over the worker pool *)
  let specs =
    List.map
      (fun row ->
        note "compiling %s (%s)..." row.name (Circuit.stats row.circuit);
        (row, Trans.export (Trans.build (Compile.compile row.circuit))))
      (table1_rows ())
  in
  let results =
    Mt.Runner.run ~jobs:!jobs ~retry:!retry
      (List.concat_map (fun (row, x) -> table1_engines row x) specs)
  in
  note "\nper-job runner reports:";
  List.iter
    (fun (r : _ Mt.Runner.result) ->
      note "  %s" (Format.asprintf "%a" Mt.Runner.pp_report r.Mt.Runner.report))
    results;
  let cells = List.map Mt.Runner.value results in
  let rec by_row specs cells =
    match (specs, cells) with
    | [], [] -> []
    | (row, _) :: specs', bfs :: rua :: sp :: cells' ->
        let states =
          List.find_map
            (function Some c when c.exact -> Some c.states | _ -> None)
            [ bfs; rua; sp ]
        in
        [
          row.name;
          string_of_int (Circuit.num_latches row.circuit);
          (match states with
          | Some s -> Printf.sprintf "%.6g" s
          | None -> "?");
          result_cell row.budget bfs;
          string_of_int row.rua.High_density.threshold;
          Printf.sprintf "%.1f" row.rua.High_density.quality;
          pimg_cell row.rua.High_density.pimg;
          result_cell row.budget rua;
          string_of_int row.sp.High_density.threshold;
          pimg_cell row.sp.High_density.pimg;
          result_cell row.budget sp;
        ]
        :: by_row specs' cells'
    | _ -> assert false
  in
  Tables.print
    ~headers:
      [
        "Ckt"; "FF"; "States"; "BFS time"; "Th"; "Qual"; "PImg"; "RUA time";
        "Th"; "PImg"; "SP time";
      ]
    ~rows:(by_row specs cells)

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: comparison of approximation methods                 *)
(* ------------------------------------------------------------------ *)

let shared_pool = lazy (Pool.build ~min_nodes:500 ~jobs:!jobs ())

let table2 () =
  section "Table 2: comparison of approximation methods I (simple methods)";
  note
    "(paper, 336 BDDs >= 5000 nodes: F 14449 nodes/0 wins; HB 24.5 nodes/3 wins;";
  note
    " SP 41.9/6; UA 28.3/24; RUA 30.4 nodes, 6.04e44 minterms, 219 wins)";
  let pool = Lazy.force shared_pool in
  note "pool: %s" (Pool.describe pool);
  (* the paper's protocol: RUA and UA run at threshold 0 / quality 1, and
     RUA's result size is the budget given to HB and SP *)
  let methods =
    [
      ("F", fun _ f -> f);
      ( "HB",
        fun man f ->
          let budget = Bdd.size (Remap.approximate man f) in
          Heavy_branch.approximate man ~threshold:budget f );
      ( "SP",
        fun man f ->
          let budget = Bdd.size (Remap.approximate man f) in
          Short_paths.approximate man ~threshold:budget f );
      ("UA", fun man f -> Under_approx.approximate man f);
      ("RUA", fun man f -> Remap.approximate man f);
    ]
  in
  let rows = Scoreboard.approx_table ~jobs:!jobs pool methods in
  Tables.print ~headers:Scoreboard.approx_headers
    ~rows:(Scoreboard.approx_rows rows)

let table3 () =
  section "Table 3: comparison of approximation methods II (compound)";
  note "(paper: C1 30.3 nodes, 6.14e44, 125 wins; C2 14.7, 2.59e44, 124)";
  let pool = Lazy.force shared_pool in
  let methods =
    [
      ("C1", fun man f -> Compound.c1 man f);
      ("C2", fun man f -> Compound.c2 man f);
    ]
  in
  let rows = Scoreboard.approx_table ~jobs:!jobs pool methods in
  Tables.print ~headers:Scoreboard.approx_headers
    ~rows:(Scoreboard.approx_rows rows)

(* ------------------------------------------------------------------ *)
(* Table 4: comparison of decomposition methods                        *)
(* ------------------------------------------------------------------ *)

let decomp_methods =
  [
    ("Cofactor", fun man f -> Decomp.conj_cofactor man f);
    ("Disjoint", fun man f -> Decomp_points.disjoint man f);
    ("Band", fun man f -> Decomp_points.band man f);
  ]

let table4 () =
  section "Table 4: comparison of decomposition methods";
  note
    "(paper, >=5000 nodes: Cofactor wins 192/279; Disjoint 57; Band 26;";
  note " on the 11 BDDs >= 20000 nodes Disjoint wins 8/11)";
  let pool = Lazy.force shared_pool in
  let class_of ~min_nodes =
    List.filter (fun e -> Bdd.size e.Pool.f >= min_nodes) pool
  in
  List.iter
    (fun min_nodes ->
      let entries = class_of ~min_nodes in
      if entries <> [] then begin
        let sizes =
          List.map (fun e -> float_of_int (Bdd.size e.Pool.f)) entries
        in
        note "\nMin. nodes = %d, |f| = %.1f, %d BDDs" min_nodes
          (Stats.geometric_mean sizes)
          (List.length entries);
        let rows = Scoreboard.decomp_table ~jobs:!jobs entries decomp_methods in
        Tables.print ~headers:Scoreboard.decomp_headers
          ~rows:(Scoreboard.decomp_rows rows)
      end)
    [ 500; 2000 ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation: RUA quality factor sweep";
  (* sweeps re-run every method several times: bound the pool to its
     small-to-medium functions to keep the whole suite CI-sized *)
  let pool =
    List.filter (fun e -> Bdd.size e.Pool.f <= 8000) (Lazy.force shared_pool)
  in
  let methods =
    List.map
      (fun q ->
        ( Printf.sprintf "RUA q=%.1f" q,
          fun man f -> Remap.approximate man ~quality:q f ))
      [ 0.5; 0.8; 1.0; 1.2; 1.5; 2.0 ]
    @ [ ("iterated", fun man f -> Compound.iterated_rua man f) ]
  in
  Tables.print ~headers:Scoreboard.approx_headers
    ~rows:(Scoreboard.approx_rows (Scoreboard.approx_table ~jobs:!jobs pool methods));

  section "Ablation: UA convex-combination weight";
  let methods =
    List.map
      (fun w ->
        ( Printf.sprintf "UA a=%.2f" w,
          fun man f ->
            Under_approx.approximate man
              ~params:{ Under_approx.threshold = 0; weight = w }
              f ))
      [ 0.25; 0.5; 0.75 ]
  in
  Tables.print ~headers:Scoreboard.approx_headers
    ~rows:(Scoreboard.approx_rows (Scoreboard.approx_table ~jobs:!jobs pool methods));

  section "Ablation: Band placement";
  let methods =
    List.map
      (fun (lo, hi) ->
        ( Printf.sprintf "Band %.2f-%.2f" lo hi,
          fun man f -> Decomp_points.band man ~band:(lo, hi) f ))
      [ (0.1, 0.35); (0.35, 0.65); (0.65, 0.9) ]
  in
  Tables.print ~headers:Scoreboard.decomp_headers
    ~rows:(Scoreboard.decomp_rows (Scoreboard.decomp_table ~jobs:!jobs pool methods));

  section "Ablation: over-approximate traversal (machine decomposition)";
  note "(the dual of Section 2: Cho et al.'s MBM overapproximation, ref [7])";
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let trans = Trans.build compiled in
      let t0 = Sys.time () in
      let over = Approx_traversal.run trans in
      let t_over = Sys.time () -. t0 in
      let t0 = Sys.time () in
      let exact = Bfs.run trans in
      let t_exact = Sys.time () -. t0 in
      let over_states = Compile.state_count compiled over in
      note "  %-24s exact %.6g states (%.2fs)   over %.6g states (%.2fs, x%.2f)"
        (Circuit.name c) exact.Traversal.states t_exact over_states t_over
        (over_states /. exact.Traversal.states))
    [
      Generate.microsequencer ~addr_bits:3 ~stack_depth:2;
      Generate.handshake_pipeline ~stages:6;
      Generate.dense_controller ~latches:16 ~seed:11;
      Generate.lfsr ~bits:8;
    ];

  section "Ablation: partitioned representation (Narayan et al., refs 19/20)";
  note "(windows vs monolithic size on the largest pool functions)";
  let biggest =
    List.filteri (fun i _ -> i < 8)
      (List.sort
         (fun a b -> compare (Bdd.size b.Pool.f) (Bdd.size a.Pool.f))
         (Lazy.force shared_pool))
  in
  List.iter
    (fun { Pool.man; f; label; _ } ->
      let p = Partitioned.of_bdd man ~parts:8 f in
      note "  %-28s |f| = %6d   max window = %6d   shared = %6d (%d windows)"
        label (Bdd.size f)
        (Partitioned.max_window_size p)
        (Partitioned.shared_size p)
        (List.length (Partitioned.windows p)))
    biggest;

  section "Ablation: McMillan's canonical conjunctive decomposition";
  let sample = List.filteri (fun i _ -> i < 12) pool in
  let factors = ref [] and shared = ref [] and mono = ref [] in
  List.iter
    (fun { Pool.man; f; _ } ->
      let gs = Mcmillan.decompose man f in
      factors := float_of_int (List.length gs) :: !factors;
      shared := float_of_int (Bdd.shared_size gs) :: !shared;
      mono := float_of_int (Bdd.size f) :: !mono)
    sample;
  note "  over %d functions: %.1f factors on average, shared size %.1f vs |f| %.1f"
    (List.length sample)
    (Stats.arithmetic_mean !factors)
    (Stats.geometric_mean !shared)
    (Stats.geometric_mean !mono);

  section "Ablation: replacement types used by RUA";
  let pool = Lazy.force shared_pool in
  let totals = ref (0, 0, 0) in
  List.iter
    (fun { Pool.man; f; _ } ->
      let _, st = Remap.approximate_with_stats man f in
      let a, b, c = !totals in
      totals :=
        (a + st.Remap.remaps, b + st.Remap.grandchild, c + st.Remap.zeroes))
    pool;
  let r, g, z = !totals in
  note "across the pool: %d remaps, %d grandchild replacements, %d zeroes" r g z

(* ------------------------------------------------------------------ *)
(* Density-regime experiment (EXPERIMENTS.md, Table 2 discussion)      *)
(* ------------------------------------------------------------------ *)

let regimes () =
  section "Density regimes: RUA vs SP on dense and sparse pools";
  note
    "(the paper's pool is sparse industrial functions, where RUA dominates;";
  note " dense random cones flatter SP's implicant packing — see Table 2)";
  let netlists =
    List.map
      (fun seed ->
        Generate.random_netlist ~inputs:18 ~gates:120 ~outputs:6 ~seed)
      (List.init 20 (fun i -> i + 50))
  in
  let dense_pool =
    List.concat_map (Pool.entries_of_circuit ~min_nodes:300) netlists
  in
  let sparse_pool =
    List.concat_map (Pool.product_entries_of_circuit ~min_nodes:300) netlists
  in
  let duel name pool =
    let methods =
      [
        ("RUA", fun man f -> Remap.approximate man f);
        ( "SP",
          fun man f ->
            Short_paths.approximate man
              ~threshold:(Bdd.size (Remap.approximate man f))
              f );
      ]
    in
    let rows = Scoreboard.approx_table ~jobs:!jobs pool methods in
    let weights =
      Stats.geometric_mean
        (List.map (fun e -> Bdd.weight e.Pool.man e.Pool.f) pool)
    in
    note "
%s pool: %s, geo-mean minterm fraction %.2g" name
      (Pool.describe pool) weights;
    Tables.print ~headers:Scoreboard.approx_headers
      ~rows:(Scoreboard.approx_rows rows)
  in
  duel "dense" dense_pool;
  duel "sparse" sparse_pool

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table                     *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "Bechamel kernels (one per table)";
  let open Bechamel in
  let pool = Lazy.force shared_pool in
  let entry = List.hd pool in
  let man = entry.Pool.man and f = entry.Pool.f in
  note "kernel operand: %s, |f| = %d" entry.Pool.label (Bdd.size f);
  (* table 1 kernel: one dense-subset + image step *)
  let circuit = Generate.microsequencer ~addr_bits:3 ~stack_depth:2 in
  let compiled = Compile.compile circuit in
  let trans = Trans.build compiled in
  let front = Image.exact trans compiled.Compile.init in
  let tman = compiled.Compile.man in
  let tests =
    [
      Test.make ~name:"table1: subset+image step"
        (Staged.stage (fun () ->
             let d = Remap.approximate tman front in
             ignore (Image.exact trans d)));
      Test.make ~name:"table2: RUA"
        (Staged.stage (fun () -> ignore (Remap.approximate man f)));
      Test.make ~name:"table3: C1"
        (Staged.stage (fun () -> ignore (Compound.c1 man f)));
      Test.make ~name:"table4: Cofactor decomposition"
        (Staged.stage (fun () -> ignore (Decomp.conj_cofactor man f)));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> note "  %-34s %12.0f ns/run" name est
          | Some _ | None -> note "  %-34s (no estimate)" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Smoke: a seconds-long slice that still exercises the parallel path   *)
(* ------------------------------------------------------------------ *)

let smoke () =
  section "Smoke: parallel pool sweep";
  let circuits =
    [
      Generate.microsequencer ~addr_bits:4 ~stack_depth:2;
      Generate.shifter_datapath ~width:8;
      Generate.random_netlist ~inputs:14 ~gates:60 ~outputs:4 ~seed:7;
    ]
  in
  let pool = List.concat_map (Pool.entries_of_circuit ~min_nodes:150) circuits in
  note "pool: %s" (Pool.describe pool);
  let methods =
    [
      ("F", fun _ f -> f);
      ( "SP",
        fun man f ->
          Short_paths.approximate man
            ~threshold:(Bdd.size (Remap.approximate man f))
            f );
      ("RUA", fun man f -> Remap.approximate man f);
    ]
  in
  Tables.print ~headers:Scoreboard.approx_headers
    ~rows:(Scoreboard.approx_rows (Scoreboard.approx_table ~jobs:!jobs pool methods));
  Tables.print ~headers:Scoreboard.decomp_headers
    ~rows:
      (Scoreboard.decomp_rows (Scoreboard.decomp_table ~jobs:!jobs pool decomp_methods));
  (* a tiny reachability fan-out through Trans.export/import: build the
     relation once, run both engines in worker-private managers *)
  let compiled = Compile.compile (Generate.microsequencer ~addr_bits:3 ~stack_depth:2) in
  let x = Trans.export (Trans.build compiled) in
  let engine label run =
    Mt.Runner.job ~label (fun man ->
        let r = run (Trans.import man x) in
        (r.Traversal.exact, r.Traversal.states))
  in
  let results =
    Mt.Runner.run ~jobs:!jobs ~retry:!retry
      [
        engine "smoke.bfs" (fun t -> Bfs.run ~node_limit:200_000 t);
        engine "smoke.rua" (fun t ->
            High_density.run ~node_limit:200_000
              ~params:{ High_density.default with threshold = 0 }
              t);
      ]
  in
  List.iter
    (fun (r : _ Mt.Runner.result) ->
      match Mt.Runner.value r with
      | Some (exact, states) ->
          note "  %-12s %s %.6g states"
            r.Mt.Runner.report.Mt.Runner.label
            (if exact then "exact" else "partial")
            states
      | None ->
          note "  %-12s %s" r.Mt.Runner.report.Mt.Runner.label
            (Format.asprintf "%a" Mt.Runner.pp_outcome r.Mt.Runner.outcome))
    results

(* ------------------------------------------------------------------ *)
(* Out-of-core reachability: the tiered store under a hot-node budget  *)
(* ------------------------------------------------------------------ *)

let ooc () =
  section "Out-of-core reachability: tiered store vs in-RAM BFS";
  let compiled =
    Compile.compile (Generate.microsequencer ~addr_bits:4 ~stack_depth:2)
  in
  let trans = Trans.build compiled in
  let oracle = Bfs.run trans in
  let man2 = Bdd.create ~nvars:0 () in
  let trans2 = Trans.import man2 (Trans.export trans) in
  let baseline = Bdd.unique_size man2 in
  let budget =
    match !hot_budget with
    | Some b -> b
    | None -> baseline + ((oracle.Traversal.peak_live_nodes - baseline) / 4)
  in
  let r = Ooc.run ?store_dir:!store_dir ~hot_budget:budget trans2 in
  let matched =
    Bdd.equal oracle.Traversal.reached
      (Bdd.import (Trans.man trans) r.Ooc.reached)
  in
  note "in-RAM oracle: %.6g states, peak %d nodes" oracle.Traversal.states
    oracle.Traversal.peak_live_nodes;
  note "out-of-core @%d hot nodes: %a" budget
    (fun () x -> Format.asprintf "%a" Ooc.pp x)
    r;
  note "reached sets %s" (if matched then "match bit-for-bit" else "DIFFER");
  if not (matched && r.Ooc.exact) then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let set_jobs n =
    match int_of_string_opt n with
    | Some j when j >= 1 -> jobs := j
    | _ ->
        Printf.eprintf "--jobs wants a positive integer, got %s\n" n;
        exit 1
  in
  let trace = ref None and metrics = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs wants a positive integer\n";
        exit 1
    | "--jobs" :: n :: rest ->
        set_jobs n;
        parse acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        parse acc rest
    | [ "--trace" ] | [ "--metrics" ] ->
        Printf.eprintf "--trace/--metrics want a file name\n";
        exit 1
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse acc rest
    | "--metrics" :: path :: rest ->
        metrics := Some path;
        parse acc rest
    | "--smoke" :: rest -> parse ("smoke" :: acc) rest
    | [ "--store-dir" ] ->
        Printf.eprintf "--store-dir wants a directory\n";
        exit 1
    | "--store-dir" :: dir :: rest ->
        store_dir := Some dir;
        parse acc rest
    | [ "--hot-node-budget" ] ->
        Printf.eprintf "--hot-node-budget wants a positive integer\n";
        exit 1
    | "--hot-node-budget" :: n :: rest -> (
        match int_of_string_opt n with
        | Some b when b >= 1 ->
            hot_budget := Some b;
            parse acc rest
        | _ ->
            Printf.eprintf "--hot-node-budget wants a positive integer, got %s\n"
              n;
            exit 1)
    | [ "--faults" ] ->
        Printf.eprintf "--faults wants a spec (e.g. seed=42,job_crash=0.2)\n";
        exit 1
    | "--faults" :: spec :: rest ->
        (match Resil.Fault.config_of_string spec with
        | Ok c ->
            Resil.Fault.arm (Some c);
            retry := Mt.Runner.default_retry
        | Error m ->
            Printf.eprintf "--faults: %s\n" m;
            exit 1);
        parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let want =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "table2"; "table3"; "table4"; "ablations"; "kernels"; "table1" ]
    | names -> names
  in
  Option.iter (fun path -> Obs.Trace.start ~out:path ()) !trace;
  if !metrics <> None then Obs.Metrics.set_recording true;
  List.iter
    (fun name ->
      let run =
        match name with
        | "table1" -> table1
        | "table2" -> table2
        | "table3" -> table3
        | "table4" -> table4
        | "ablations" -> ablations
        | "regimes" -> regimes
        | "kernels" -> kernels
        | "smoke" -> smoke
        | "ooc" -> ooc
        | other ->
            Printf.eprintf
              "unknown experiment %s (want table1..table4, ablations, \
               regimes, kernels, smoke, ooc)\n"
              other;
            exit 1
      in
      Obs.Trace.with_span ("experiment:" ^ name) run)
    want;
  (* stderr, never stdout: the smoke output must stay byte-identical
     across --jobs and with/without observability *)
  Obs.Trace.stop ();
  if Resil.Fault.enabled () then
    Printf.eprintf "faults injected: %d (%s)\n%!" (Resil.Fault.injected ())
      (match Resil.Fault.armed () with
      | Some c -> Resil.Fault.config_to_string c
      | None -> assert false);
  Option.iter (fun path -> Printf.eprintf "trace -> %s\n%!" path) !trace;
  Option.iter
    (fun path ->
      Obs.Metrics.write Obs.Metrics.default path;
      Printf.eprintf "metrics -> %s\n%!" path)
    !metrics
