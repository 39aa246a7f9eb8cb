(* Kernel microbenchmarks: the perf trajectory of the BDD memory subsystem.

     dune exec bench/micro.exe                 -- full suite -> BENCH_kernel.json
     dune exec bench/micro.exe -- --smoke      -- seconds-long CI slice
     dune exec bench/micro.exe -- -o FILE      -- write the report elsewhere
     dune exec bench/micro.exe -- --validate FILE   -- schema-check a report
     dune exec bench/micro.exe -- --trace FILE      -- Perfetto span trace
     dune exec bench/micro.exe -- --metrics FILE    -- obs-metrics/v1 snapshot

   Three workloads exercise the unique table and the computed caches the way
   the DAC'98 algorithms do — connective-heavy construction (n-queens),
   image computation over a partitioned transition relation (BFS on the
   microsequencer), and repeated relational products (pairwise and_exists
   over a combinational cone pool) — plus two probe loops that measure the
   minor-heap allocation of a cache-hitting band and a unique-table-hitting
   mk, which is how the zero-allocation claim of DESIGN.md §Kernel is
   checked (and re-checked by `make bench-smoke` on every `make check`).

   The report is machine-readable JSON (schema "bdd-kernel-bench/v2", a
   superset of v1), one object per workload: wall time, nodes made,
   nodes/sec, cache hit rate, peak unique-table size, and OCaml GC counter
   deltas.  v2 adds a domain-scaling sweep ("par"): image-useq4 and
   relprod-pairs re-run on a shared manager at 1/2/4/8 worker domains,
   each row carrying its speedup over the 1-domain run and an [identical]
   bit asserting the parallel result's serialized fingerprint matches the
   sequential one.  "host_cpus" records what the host can actually run in
   parallel — on a 1-core container the sweep measures overhead, not
   scaling, and the report says so rather than hiding it.  Successive PRs
   compare their BENCH_kernel.json against the committed history to keep
   the kernel trajectory honest. *)

let schema_version = "bdd-kernel-bench/v2"

(* JSON emission/parsing and the wall+GC measurement scaffolding used to
   live here; both moved to lib/obs (Obs.Json, Obs.Timing) so the bench
   executables, Mt.Runner and the tracer share one implementation. *)
open Obs.Json

(* ------------------------------------------------------------------ *)
(* Measurement harness                                                 *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_name : string;
  s_wall : float;
  s_nodes_made : int;
  s_peak_unique : int;
  s_unique_size : int;
  s_hits : int;
  s_misses : int;
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_cols : int;
  s_major_cols : int;
  s_check : float; (* workload-specific sanity number (solutions, states) *)
}

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

(* Run [work] against a fresh manager and capture wall time, manager
   counters and GC counter deltas.  Obs.Timing runs a full major
   collection up front, keeping the previous workload's garbage out of
   this one's numbers. *)
let measure name work =
  let (man, check), wall, gd =
    Obs.Timing.measure (fun () ->
        Obs.Trace.with_span ("bench:" ^ name) (fun () ->
            let man = Bdd.create () in
            if Obs.Kernel.observing () then Obs.Kernel.attach man;
            (man, work man)))
  in
  let st = Bdd.stats man in
  {
    s_name = name;
    s_wall = wall;
    s_nodes_made = stat st "nodes_made";
    s_peak_unique = stat st "peak_unique";
    s_unique_size = stat st "unique_size";
    s_hits = stat st "cache_hits";
    s_misses = stat st "cache_misses";
    s_minor_words = gd.Obs.Timing.minor_words;
    s_promoted_words = gd.Obs.Timing.promoted_words;
    s_major_words = gd.Obs.Timing.major_words;
    s_minor_cols = gd.Obs.Timing.minor_collections;
    s_major_cols = gd.Obs.Timing.major_collections;
    s_check = check;
  }

let json_of_sample s =
  let probes = s.s_hits + s.s_misses in
  Obj
    [
      ("name", Str s.s_name);
      ("wall_s", Num s.s_wall);
      ("nodes_made", num_int s.s_nodes_made);
      ( "nodes_per_sec",
        Num (float_of_int s.s_nodes_made /. Float.max 1e-9 s.s_wall) );
      ("cache_hits", num_int s.s_hits);
      ("cache_misses", num_int s.s_misses);
      ( "cache_hit_rate",
        Num (float_of_int s.s_hits /. float_of_int (max 1 probes)) );
      ("peak_unique", num_int s.s_peak_unique);
      ("unique_size", num_int s.s_unique_size);
      ("minor_words", Num s.s_minor_words);
      ("promoted_words", Num s.s_promoted_words);
      ("major_words", Num s.s_major_words);
      ("minor_collections", num_int s.s_minor_cols);
      ("major_collections", num_int s.s_major_cols);
      ("check", Num s.s_check);
    ]

(* ------------------------------------------------------------------ *)
(* Workload 1: n-queens construction (connective-heavy)                *)
(* ------------------------------------------------------------------ *)

(* The classic BDD formulation (cf. the BuDDy demo): one variable per
   square, at least one queen per row, and each queen forbids its row,
   column and both diagonals.  Returns the number of solutions (92 for
   n = 8, 4 for n = 6) as the sanity check. *)
let queens_bdd n man =
  let var i j = Bdd.ithvar man ((i * n) + j) in
  let b = ref (Bdd.tt man) in
  for i = 0 to n - 1 do
    let row = ref (Bdd.ff man) in
    for j = 0 to n - 1 do
      row := Bdd.bor man !row (var i j)
    done;
    b := Bdd.band man !b !row
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let a = ref (Bdd.tt man) in
      for l = 0 to n - 1 do
        if l <> j then a := Bdd.band man !a (Bdd.bnot man (var i l))
      done;
      for k = 0 to n - 1 do
        if k <> i then begin
          a := Bdd.band man !a (Bdd.bnot man (var k j));
          let d = j + k - i in
          if d >= 0 && d < n then a := Bdd.band man !a (Bdd.bnot man (var k d));
          let d = j + i - k in
          if d >= 0 && d < n then a := Bdd.band man !a (Bdd.bnot man (var k d))
        end
      done;
      b := Bdd.band man !b (Bdd.bimp man (var i j) !a)
    done
  done;
  !b

let queens n man = Bdd.count_minterms man (queens_bdd n man) ~nvars:(n * n)

(* --dd-mode: report the n-queens function's size in a compressed
   representation on stderr.  Informational only — the JSON schema does
   not change — but the conversion is still round-trip verified. *)
let dd_sizes spec =
  let modes =
    if spec = "all" then Dd.all_modes
    else
      match Dd.mode_of_string spec with
      | Some m -> [ m ]
      | None ->
          Printf.eprintf "--dd-mode: unknown mode %s\n" spec;
          exit 1
  in
  let n = 6 in
  let man = Bdd.create ~nvars:(n * n) () in
  let f = queens_bdd n man in
  let plain = Bdd.size f in
  List.iter
    (fun mode ->
      let dman = Dd.create ~nvars:(n * n) ~mode () in
      let u = Dd.of_bdd dman man f in
      if not (Bdd.equal (Dd.to_bdd dman man u) f) then begin
        Printf.eprintf "--dd-mode %s: round trip diverged\n" (Dd.mode_name mode);
        exit 1
      end;
      Printf.eprintf "  dd %-4s queens%d %6d nodes (plain bdd %d, %.2fx)\n%!"
        (Dd.mode_name mode) n (Dd.size u) plain
        (float_of_int plain /. float_of_int (max 1 (Dd.size u))))
    modes

(* ------------------------------------------------------------------ *)
(* Workload 2: image computation (BFS over a partitioned relation)     *)
(* ------------------------------------------------------------------ *)

let image_bfs ~addr_bits man =
  let circuit = Generate.microsequencer ~addr_bits ~stack_depth:2 in
  let compiled = Compile.compile ~man circuit in
  let trans = Trans.build compiled in
  let r = Bfs.run trans in
  r.Traversal.states

(* ------------------------------------------------------------------ *)
(* Workload 3: repeated relational products                            *)
(* ------------------------------------------------------------------ *)

(* All-pairs ∃vars. f_i ∧ f_j over the output cones of a structured random
   netlist: the and_exists recursion dominated by computed-cache traffic.
   The check is the total node count of the results. *)
let relprod ~inputs ~gates man =
  let circuit =
    Generate.random_netlist ~inputs ~gates ~outputs:6 ~seed:17
  in
  let compiled = Compile.compile ~man circuit in
  let fns = List.map snd compiled.Compile.output_fns in
  (* quantify the first half of the inputs out of every product *)
  let cube =
    Bdd.cube man
      (List.filteri (fun i _ -> i mod 2 = 0)
         (Array.to_list (Compile.input_var_array compiled)))
  in
  let total = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun g -> total := !total + Bdd.size (Bdd.and_exists man ~vars:cube f g))
        fns)
    fns;
  float_of_int !total

(* ------------------------------------------------------------------ *)
(* Workload 4: domain-scaling sweep (the parallel kernel)              *)
(* ------------------------------------------------------------------ *)

(* Re-run the two image/relprod workloads on a shared manager with a
   Tpool of 1/2/4/8 workers.  Each row fingerprints its result (digest of
   the canonical serialization) so the report itself proves the parallel
   kernel computed bit-identical BDDs, not just similar counts. *)

let par_jobs = [ 1; 2; 4; 8 ]

type par_row = {
  p_workload : string;
  p_jobs : int;
  p_wall : float;
  p_nodes : int;
  p_check : float;
  p_fingerprint : string;
}

let fingerprint man f =
  Digest.to_hex (Digest.string (Bdd.serialized_to_string (Bdd.export man f)))

let par_image ?pool man =
  let circuit = Generate.microsequencer ~addr_bits:4 ~stack_depth:2 in
  let compiled = Compile.compile ~man circuit in
  let trans = Trans.build compiled in
  let r = Bfs.run ?pool trans in
  (r.Traversal.states, fingerprint man r.Traversal.reached)

let par_relprod ?pool man =
  let circuit =
    Generate.random_netlist ~inputs:18 ~gates:140 ~outputs:6 ~seed:17
  in
  let compiled = Compile.compile ~man circuit in
  let fns = List.map snd compiled.Compile.output_fns in
  let cube =
    Bdd.cube man
      (List.filteri (fun i _ -> i mod 2 = 0)
         (Array.to_list (Compile.input_var_array compiled)))
  in
  let total = ref 0 and digests = Buffer.create 256 in
  List.iter
    (fun f ->
      List.iter
        (fun g ->
          let r = Bdd.and_exists ?pool man ~vars:cube f g in
          total := !total + Bdd.size r;
          Buffer.add_string digests (fingerprint man r))
        fns)
    fns;
  (float_of_int !total, Digest.to_hex (Digest.string (Buffer.contents digests)))

let par_measure workload jobs work =
  let pool = if jobs > 1 then Some (Tpool.create ~workers:jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Tpool.shutdown pool)
  @@ fun () ->
  let (man, check, fp), wall, _gd =
    Obs.Timing.measure (fun () ->
        Obs.Trace.with_span
          (Printf.sprintf "bench:par:%s@%d" workload jobs)
          (fun () ->
            let man = Bdd.create ~shared:(jobs > 1) () in
            if Obs.Kernel.observing () then Obs.Kernel.attach man;
            let check, fp = work ?pool man in
            (man, check, fp)))
  in
  {
    p_workload = workload;
    p_jobs = jobs;
    p_wall = wall;
    p_nodes = stat (Bdd.stats man) "nodes_made";
    p_check = check;
    p_fingerprint = fp;
  }

let json_of_par_row ~baseline r =
  Obj
    [
      ("workload", Str r.p_workload);
      ("jobs", num_int r.p_jobs);
      ("wall_s", Num r.p_wall);
      ("nodes_made", num_int r.p_nodes);
      ( "nodes_per_sec",
        Num (float_of_int r.p_nodes /. Float.max 1e-9 r.p_wall) );
      ("speedup", Num (baseline.p_wall /. Float.max 1e-9 r.p_wall));
      ( "identical",
        num_int
          (if
             r.p_fingerprint = baseline.p_fingerprint
             && r.p_check = baseline.p_check
           then 1
           else 0) );
      ("check", Num r.p_check);
    ]

let par_sweep () =
  let workloads =
    [ ("image-useq4", par_image); ("relprod-pairs", par_relprod) ]
  in
  List.concat_map
    (fun (name, work) ->
      let rows =
        List.map
          (fun jobs ->
            Printf.eprintf "running par:%s @ %d domain(s)...\n%!" name jobs;
            par_measure name jobs work)
          par_jobs
      in
      let baseline = List.hd rows in
      List.iter
        (fun r ->
          Printf.eprintf
            "  par %-14s jobs=%d %7.3fs %8.0f nodes/s  speedup %.2fx  %s\n%!"
            r.p_workload r.p_jobs r.p_wall
            (float_of_int r.p_nodes /. Float.max 1e-9 r.p_wall)
            (baseline.p_wall /. Float.max 1e-9 r.p_wall)
            (if r.p_fingerprint = baseline.p_fingerprint then "identical"
             else "MISMATCH"))
        rows;
      List.map (json_of_par_row ~baseline) rows)
    workloads

(* ------------------------------------------------------------------ *)
(* Probe loops: allocation on the hit path                             *)
(* ------------------------------------------------------------------ *)

(* Repeat an operation whose result is already cached (computed cache for
   band, unique table for mk via ithvar) and report minor-heap words per
   probe.  The loop bodies allocate nothing themselves, so this is the
   per-probe allocation of the kernel: tuple-keyed hash tables pay a key
   box plus an option per probe, the packed tables pay zero. *)
let probe name ops warm op =
  warm ();
  let (), wall, gd =
    Obs.Timing.measure (fun () ->
        for _ = 1 to ops do
          op ()
        done)
  in
  let words = gd.Obs.Timing.minor_words in
  Obj
    [
      ("name", Str name);
      ("ops", num_int ops);
      ("wall_s", Num wall);
      ("minor_words_per_op", Num (words /. float_of_int ops));
      ("ns_per_op", Num (wall *. 1e9 /. float_of_int ops));
    ]

let probes ~ops =
  let man = Bdd.create ~nvars:24 () in
  let f =
    Bdd.conj man (List.init 12 (fun i -> Bdd.ithvar man (2 * i)))
  and g =
    Bdd.disj man (List.init 12 (fun i -> Bdd.ithvar man ((2 * i) + 1)))
  in
  [
    probe "hit_band" ops
      (fun () -> ignore (Bdd.band man f g))
      (fun () -> ignore (Bdd.band man f g));
    probe "hit_mk" ops
      (fun () -> ignore (Bdd.ithvar man 7))
      (fun () -> ignore (Bdd.ithvar man 7));
  ]

(* ------------------------------------------------------------------ *)
(* Report assembly and validation                                      *)
(* ------------------------------------------------------------------ *)

let report ~smoke =
  let benches =
    if smoke then
      [
        ("queens6", queens 6);
        ("image-useq3", image_bfs ~addr_bits:3);
        ("relprod-pairs", relprod ~inputs:14 ~gates:70);
      ]
    else
      [
        ("queens8", queens 8);
        ("image-useq4", image_bfs ~addr_bits:4);
        ("relprod-pairs", relprod ~inputs:18 ~gates:140);
      ]
  in
  let samples =
    List.map
      (fun (name, work) ->
        Printf.eprintf "running %s...\n%!" name;
        let s = measure name work in
        Printf.eprintf
          "  %-14s %7.3fs  %9d nodes  %8.0f nodes/s  hit rate %.3f\n%!"
          s.s_name s.s_wall s.s_nodes_made
          (float_of_int s.s_nodes_made /. Float.max 1e-9 s.s_wall)
          (float_of_int s.s_hits
          /. float_of_int (max 1 (s.s_hits + s.s_misses)));
        s)
      benches
  in
  let probe_ops = if smoke then 200_000 else 2_000_000 in
  let probe_objs = probes ~ops:probe_ops in
  List.iter
    (fun p ->
      match p with
      | Obj kvs -> (
          match (List.assoc "name" kvs, List.assoc "minor_words_per_op" kvs) with
          | Str n, Num w ->
              Printf.eprintf "  probe %-10s %.3f minor words/op\n%!" n w
          | _ -> ())
      | _ -> ())
    probe_objs;
  let par_rows = par_sweep () in
  let total_wall = List.fold_left (fun a s -> a +. s.s_wall) 0. samples in
  let total_nodes =
    List.fold_left (fun a s -> a + s.s_nodes_made) 0 samples
  in
  Obj
    [
      ("schema", Str schema_version);
      ("mode", Str (if smoke then "smoke" else "full"));
      ("ocaml", Str Sys.ocaml_version);
      ("word_size", num_int Sys.word_size);
      (* what the sweep's speedups are measured against: on a 1-core host
         they quantify parallel overhead, not scaling *)
      ("host_cpus", num_int (Domain.recommended_domain_count ()));
      (* 0 on platforms without /proc/self/status *)
      ("peak_rss_kb", num_int (Obs.Timing.peak_rss_kb ()));
      ("benchmarks", Arr (List.map json_of_sample samples));
      ("par", Arr par_rows);
      ("probes", Arr probe_objs);
      ( "totals",
        Obj
          [
            ("wall_s", Num total_wall);
            ("nodes_made", num_int total_nodes);
            ( "nodes_per_sec",
              Num (float_of_int total_nodes /. Float.max 1e-9 total_wall) );
          ] );
    ]

(* Schema check: the structure `make bench-smoke` asserts after every run,
   so a refactor that silently breaks the report shape fails CI. *)
let validate path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: invalid: %s\n" path msg;
        exit 1)
      fmt
  in
  let j =
    try Obs.Json.read_file path with Obs.Json.Parse_error m -> fail "%s" m
  in
  let obj = function Obj kvs -> kvs | _ -> fail "expected an object" in
  let field kvs k =
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> fail "missing field %S" k
  in
  let number kvs k =
    match field kvs k with Num f -> f | _ -> fail "field %S not a number" k
  in
  let top = obj j in
  (match field top "schema" with
  | Str s when s = schema_version -> ()
  | Str s -> fail "schema %S, want %S" s schema_version
  | _ -> fail "schema is not a string");
  (match field top "mode" with
  | Str ("full" | "smoke") -> ()
  | _ -> fail "mode must be \"full\" or \"smoke\"");
  (match List.assoc_opt "peak_rss_kb" top with
  (* optional so reports written before the field existed still validate *)
  | None -> ()
  | Some (Num f) when f >= 0.0 -> ()
  | Some _ -> fail "peak_rss_kb must be a non-negative number");
  let benches =
    match field top "benchmarks" with
    | Arr (_ :: _ as xs) -> xs
    | Arr [] -> fail "benchmarks is empty"
    | _ -> fail "benchmarks is not an array"
  in
  List.iter
    (fun b ->
      let kvs = obj b in
      (match field kvs "name" with
      | Str _ -> ()
      | _ -> fail "benchmark name is not a string");
      List.iter
        (fun k -> ignore (number kvs k))
        [
          "wall_s"; "nodes_made"; "nodes_per_sec"; "cache_hits";
          "cache_misses"; "cache_hit_rate"; "peak_unique"; "minor_words";
          "minor_collections";
        ])
    benches;
  (match field top "host_cpus" with
  | Num f when f >= 1.0 -> ()
  | _ -> fail "host_cpus must be a number >= 1");
  let par =
    match field top "par" with
    | Arr (_ :: _ as xs) -> xs
    | Arr [] -> fail "par is empty"
    | _ -> fail "par is not an array"
  in
  List.iter
    (fun row ->
      let kvs = obj row in
      let name =
        match field kvs "workload" with
        | Str s -> s
        | _ -> fail "par workload is not a string"
      in
      List.iter
        (fun k -> ignore (number kvs k))
        [ "jobs"; "wall_s"; "nodes_made"; "nodes_per_sec"; "speedup" ];
      (* the sweep's whole point: every parallel run reproduced the
         1-domain result bit for bit *)
      if number kvs "identical" <> 1.0 then
        fail "par row %s@%.0f is not identical to its 1-domain baseline"
          name (number kvs "jobs"))
    par;
  (* both sweep workloads must cover the 1-domain baseline *)
  List.iter
    (fun w ->
      if
        not
          (List.exists
             (fun row ->
               let kvs = obj row in
               field kvs "workload" = Str w && number kvs "jobs" = 1.0)
             par)
      then fail "par sweep is missing the %s jobs=1 baseline" w)
    [ "image-useq4"; "relprod-pairs" ];
  let probes =
    match field top "probes" with
    | Arr (_ :: _ as xs) -> xs
    | _ -> fail "probes is missing or empty"
  in
  List.iter
    (fun p ->
      let kvs = obj p in
      List.iter
        (fun k -> ignore (number kvs k))
        [ "ops"; "minor_words_per_op"; "ns_per_op" ])
    probes;
  (* the zero-allocation claim of DESIGN.md §Kernel: a cache-hitting band
     and a table-hitting mk allocate nothing *)
  List.iter
    (fun name ->
      match
        List.find_opt (fun p -> field (obj p) "name" = Str name) probes
      with
      | None -> fail "probe %s is missing" name
      | Some p ->
          let w = number (obj p) "minor_words_per_op" in
          if w <> 0.0 then
            fail "probe %s allocates %g minor words per op, want 0" name w)
    [ "hit_band"; "hit_mk" ];
  let totals = obj (field top "totals") in
  List.iter
    (fun k -> ignore (number totals k))
    [ "wall_s"; "nodes_made"; "nodes_per_sec" ];
  Printf.printf "%s: valid %s report, %d benchmarks, %.0f nodes/sec overall\n"
    path schema_version (List.length benches)
    (number totals "nodes_per_sec")

(* ------------------------------------------------------------------ *)

let () =
  let smoke = ref false
  and out = ref "BENCH_kernel.json"
  and trace = ref None
  and metrics = ref None
  and dd_mode = ref None
  and to_validate = ref [] in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "-o" :: path :: rest ->
        out := path;
        parse rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse rest
    | "--metrics" :: path :: rest ->
        metrics := Some path;
        parse rest
    | "--validate" :: path :: rest ->
        to_validate := path :: !to_validate;
        parse rest
    | "--dd-mode" :: spec :: rest ->
        dd_mode := Some spec;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: micro.exe [--smoke] [-o FILE] [--trace FILE] [--metrics \
           FILE] [--validate FILE] [--dd-mode MODE]\n\
           unknown argument %s\n"
          arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !to_validate with
  | _ :: _ as paths -> List.iter validate paths
  | [] ->
      Option.iter (fun path -> Obs.Trace.start ~out:path ()) !trace;
      if !metrics <> None then Obs.Metrics.set_recording true;
      let j = report ~smoke:!smoke in
      Obs.Json.write_file !out j;
      Obs.Trace.stop ();
      Option.iter
        (fun path ->
          Obs.Metrics.write Obs.Metrics.default path;
          Printf.eprintf "metrics -> %s\n%!" path)
        !metrics;
      Option.iter (fun path -> Printf.eprintf "trace -> %s\n%!" path) !trace;
      Option.iter dd_sizes !dd_mode;
      Printf.printf "wrote %s\n" !out
