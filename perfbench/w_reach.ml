(* reach and reach-par: the paper's Table 1 protocol on scaled-down
   versions of its four circuit families, with no time limits.

   reach runs BFS, HD+RUA and HD+SP on private managers: relprod/image
   work, unique-table growth to ~10^5 nodes and kernel GC, i.e. the
   kernel used write-heavy, with RUA and SP inside a traversal.
   reach-par runs the same BFS on shared managers with a 2-domain Mt.Par
   pool: the only workload where the striped table, Tpool/Wsdeque
   fork-join and par_exist_and do the work.  reach is its bypass twin. *)

(* dc20's controller seed is the first one drawn from the workload seed
   whose machine reaches 2,000 to 8,000 states and whose BFS peaks at
   90,000 to 130,000 live nodes.  Across seeds a 20-latch dense
   controller reaches anywhere from tens to tens of thousands of states
   (BFS from 0.01 s to 7 s); within the state band alone its three
   traversals still took 0.7 s to 3.0 s together (ten seeds), a quarter
   of a reach pass, and the node band keeps one seed's pass about as long
   as another's.  The explicit-state search (Sim.reachable, cut off at the
   band's top) also gives the count the traversals must reach.  The draw
   runs once per run, before any set-up. *)
let dense_band = (2_000, 8_000)
let dense_nodes = (90_000, 130_000)
let dense = Hashtbl.create 1

let within (lo, hi) n = lo <= n && n <= hi

let bfs_peak circuit =
  (Bfs.run (Trans.build (Compile.compile circuit))).Traversal.peak_live_nodes

let dense_for seed =
  match Hashtbl.find_opt dense seed with
  | Some d -> d
  | None ->
      let rng = Random.State.make [| 0xdc20; seed |] in
      let rec draw () =
        let s = Random.State.bits rng in
        let circuit = Generate.dense_controller ~latches:20 ~seed:s in
        match
          Hashtbl.length (Sim.reachable ~max_states:(snd dense_band) circuit)
        with
        | n when within dense_band n && within dense_nodes (bfs_peak circuit)
          ->
            (s, float_of_int n)
        | _ | (exception Failure _) -> draw ()
      in
      let d = draw () in
      Hashtbl.replace dense seed d;
      d

let models seed =
  [
    ("hs11", fun () -> Generate.handshake_pipeline ~stages:11);
    ("sh8", fun () -> Generate.shifter_datapath ~width:8);
    ( "dc20",
      fun () ->
        Generate.dense_controller ~latches:20 ~seed:(fst (dense_for seed)) );
    ("useq4", fun () -> Generate.microsequencer ~addr_bits:4 ~stack_depth:2);
  ]

let model_names = List.map fst (models 0)

(* As in approx, the end-to-end latency percentiles are taken over the
   traversals of the models that are the same for every seed; dc20's
   traversals count in wall_s, in the checks and in the per-layer rows. *)
let seeded_model = "dc20"

(* Explicit-state counts from Sim.reachable, recorded once with
   [perfbench.exe --record-states] (hs11 took 15 s, sh8 20 s on a 2-vCPU
   VM).  useq4 does not finish in 5 minutes, so its only check is that
   every engine reaches the same set. *)
let recorded_states = [ ("hs11", 236196.0); ("sh8", 2561.0) ]

let explicit_states circuit =
  float_of_int (Hashtbl.length (Sim.reachable circuit))

let expected_states seed = function
  | "dc20" -> Some (snd (dense_for seed))
  | m -> List.assoc_opt m recorded_states

let engines =
  let hd = High_density.default in
  [
    ("bfs", fun ?pool t -> Bfs.run ?pool t);
    ( "rua",
      fun ?pool t ->
        High_density.run ?pool
          ~params:{ hd with threshold = 0; quality = 1.0 }
          t );
    ( "sp",
      fun ?pool t ->
        High_density.run ?pool
          ~params:{ hd with meth = Approx.SP; threshold = 1000 }
          t );
  ]

type model = { name : string; exported : Trans.exported }

(* Generate, compile and partition every model.  Each traversal then gets
   its own manager with the relation imported, so engines never share
   caches or collect each other's roots. *)
let build seed =
  let compile_s = ref 0.0 and trans_s = ref 0.0 in
  let ms =
    List.map
      (fun (name, gen) ->
        let circuit = gen () in
        let compiled, tc = Measure.time (fun () -> Compile.compile circuit) in
        let trans, tt = Measure.time (fun () -> Trans.build compiled) in
        compile_s := !compile_s +. tc;
        trans_s := !trans_s +. tt;
        { name; exported = Trans.export trans })
      (models seed)
  in
  (ms, [ ("circuit.compile_s", !compile_s); ("reach.trans_build_s", !trans_s) ])

(* The relation is dropped once its traversal is done, so a pass holds
   one traversal's manager at a time. *)
type job = { model : string; engine : string; mutable trans : Trans.t option }

type outcome = {
  job : job;
  seconds : float;
  result : (Traversal.result * Bdd.serialized, exn) result;
  kernel : Measure.kernel;
}

let job ~shared m engine =
  let man = if shared then Bdd.create ~shared:true () else Bdd.create () in
  { model = m.name; engine; trans = Some (Trans.import man m.exported) }

let run_job ?pool id job =
  let trans = Option.get job.trans in
  job.trans <- None;
  let man = Trans.man trans in
  let run = List.assoc job.engine engines in
  let t0 = Measure.now () in
  let r, kernel =
    Measure.kernel_delta [ man ] (fun () ->
        match
          Measure.op ~name:"reach.traversal" ~id (fun () -> run ?pool trans)
        with
        | (r : Traversal.result), dt ->
            Ok (r, Bdd.export man r.Traversal.reached, dt)
        | exception e -> Error (e, Measure.now () -. t0))
  in
  match r with
  | Ok (r, ser, seconds) -> { job; seconds; result = Ok (r, ser); kernel }
  | Error (e, seconds) -> { job; seconds; result = Error e; kernel }

(* A traversal fails when it raised, stopped short of the fixpoint, or
   reached a state count other than the explicit-state one. *)
let exact seed o =
  match o.result with
  | Error _ -> false
  | Ok (r, _) ->
      r.Traversal.exact
      && Checks.states_ok
           ~expected:(expected_states seed o.job.model)
           r.Traversal.states

(* The pass after a set-up that took [setup_s], and what both workloads
   report from it.  Every traversal starts from a collected heap, as in
   approx: a full major GC runs before it, outside its time, and wall_s
   sums the traversals' times.  Given [placed], a sequential pass's
   traversals take turns on the CPUs from that index on. *)
let measured ?placed ~setup_s ~jobs ~run ~ok layers =
  let outcomes =
    List.mapi
      (fun i j ->
        Measure.settle ();
        Option.iter (fun k -> Measure.place (k + i)) placed;
        run (i + 1) j)
      jobs
  in
  Measure.unplace ();
  let wall_s = Measure.sum (List.map (fun o -> o.seconds) outcomes) in
  let rss_mb = Measure.peak_rss_mb "self" in
  let k =
    List.fold_left
      (fun acc o -> Measure.add_kernel acc o.kernel)
      Measure.zero outcomes
  in
  {
    Rep.setup_s;
    wall_s;
    lat =
      List.filter_map
        (fun o -> if o.job.model <> seeded_model then Some o.seconds else None)
        outcomes;
    attempted = List.length outcomes;
    failed = List.length (List.filter (fun o -> not (ok outcomes o)) outcomes);
    rss_mb;
    layers = layers outcomes @ Measure.kernel_rows k;
  }

(* --- reach ------------------------------------------------------------ *)

(* Applied to its seed, the workload draws dc20 once for the run, outside
   every repetition.  A repetition is long and a run has two to four, so
   each sets up three times, each after a full major GC, reports the median
   time and traverses what the last set-up built. *)
let setups = 3

let rep ~seed =
  ignore (dense_for seed);
  fun ~index ~traced:_ ->
  let set_up () =
    let ms, build_rows = build seed in
    ( build_rows,
      List.concat_map
        (fun m -> List.map (fun (e, _) -> job ~shared:false m e) engines)
        ms )
  in
  let rec repeat k times =
    if k > 1 then begin
      let _, dt = Measure.time set_up in
      Measure.settle ();
      repeat (k - 1) (dt :: times)
    end
    else
      let r, dt = Measure.time set_up in
      (r, Measure.median (dt :: times))
  in
  let (build_rows, jobs), setup_s = repeat setups [] in
  (* every engine of a model must reach the set its BFS reached *)
  let agrees outcomes o =
    let bfs =
      List.find_map
        (fun b ->
          match b.result with
          | Ok (_, ser) when b.job.model = o.job.model && b.job.engine = "bfs"
            ->
              Some ser
          | _ -> None)
        outcomes
    in
    match (o.result, bfs) with
    | Ok (_, ser), Some bfs -> Checks.same_set ser bfs
    | _ -> false
  in
  let per_job o =
    let key = Printf.sprintf "reach.%s.%s" o.job.model o.job.engine in
    match o.result with
    | Ok (r, _) ->
        [
          (key ^ "_s", o.seconds);
          (key ^ ".images", float_of_int r.Traversal.images);
          (key ^ ".peak_live_nodes", float_of_int r.Traversal.peak_live_nodes);
        ]
    | Error _ -> []
  in
  measured ~placed:index ~setup_s ~jobs
    ~run:(fun id j -> run_job id j)
    ~ok:(fun outcomes o -> exact seed o && agrees outcomes o)
    (fun outcomes -> List.concat_map per_job outcomes @ build_rows)

(* --- reach-par -------------------------------------------------------- *)

(* The sequential BFS of a model on a private manager: its reached set
   is the bit-identity oracle and its time the speedup's numerator. *)
let sequential m =
  let trans = Trans.import (Bdd.create ()) m.exported in
  let r, dt = Measure.time (fun () -> Bfs.run trans) in
  (Bdd.export (Trans.man trans) r.Traversal.reached, dt)

(* One pool per run, as a program holds one.  A fresh pool per repetition
   would give its helper a new domain id each time, and Tpool homes its
   deques by domain id, so in every other repetition helper and caller
   would share one deque. *)
let pool =
  lazy
    (let par = Mt.Par.create ~jobs:2 () in
     at_exit (fun () -> Mt.Par.shutdown par);
     Mt.Par.pool par)

(* Applied to its seed, it also starts the pool and runs every model's
   sequential BFS once for the run, outside every repetition. *)
let rep_par ~seed =
  ignore (dense_for seed);
  let pool = Lazy.force pool in
  let reference =
    List.map (fun m -> (m.name, sequential m)) (fst (build seed))
  in
  fun ~index:_ ~traced:_ ->
  let (build_rows, jobs), setup_s =
    Measure.time (fun () ->
        let ms, build_rows = build seed in
        (build_rows, List.map (fun m -> job ~shared:true m "bfs") ms))
  in
  let mans = List.map (fun j -> Trans.man (Option.get j.trans)) jobs in
  let reference_of o = List.assoc o.job.model reference in
  let contention () =
    List.fold_left
      (fun (w, c, r) man ->
        let x = Bdd.contention man in
        ( w + x.Bdd.stripe_waits,
          c + x.Bdd.cas_retries,
          r + x.Bdd.cache_races ))
      (0, 0, 0) mans
  in
  let forks0, execs0, steals0 = Tpool.stats pool in
  let w0, c0, r0 = contention () in
  let identical o =
    match o.result with
    | Ok (_, ser) ->
        Checks.bit_identical ser (fst (reference_of o))
    | Error _ -> false
  in
  let layers outcomes =
    let forks1, execs1, steals1 = Tpool.stats pool in
    let w1, c1, r1 = contention () in
    List.concat_map
      (fun o ->
        [
          (Printf.sprintf "par.%s.bfs_s" o.job.model, o.seconds);
          ( Printf.sprintf "par.%s.speedup" o.job.model,
            snd (reference_of o) /. Float.max 1e-9 o.seconds );
        ])
      outcomes
    @ build_rows
    @ [
        ("par.tasks", float_of_int (forks1 - forks0));
        ( "par.steal_ratio",
          float_of_int (steals1 - steals0)
          /. float_of_int (max 1 (execs1 - execs0)) );
        ("bdd.stripe_waits", float_of_int (w1 - w0));
        ("bdd.cas_retries", float_of_int (c1 - c0));
        ("bdd.cache_races", float_of_int (r1 - r0));
      ]
  in
  measured ~setup_s ~jobs
    ~run:(fun id j -> run_job ~pool id j)
    ~ok:(fun _ o -> exact seed o && identical o)
    layers
