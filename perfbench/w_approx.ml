(* approx: the paper's Tables 2-4 protocol over a function pool.

   lib/core and the kernel do almost all the work, read-heavy: traversals
   of fixed BDDs in unique tables of about 10^4 nodes and no kernel GC.
   reach, serve and mt sit idle.

   The pool is every function of at least 500 nodes of the paper-family
   circuits below, which are the same for every seed, plus a seeded part:
   [draws] pairs of random netlists with seeds drawn from the workload
   seed, of whose functions the [outputs] output functions and [products]
   sparse and3 products nearest [target] nodes are kept.  Random-netlist
   functions run from a few hundred to several thousand nodes; a fixed
   number of draws and a size target keep one seed's share of the work,
   of set-up and of memory like another's (drawing until a quota was met
   moved peak_rss_mb by half from seed to seed).  Even so, which
   functions a seed draws moved the median call by about a fifth (eight
   seeds), so the end-to-end latency percentiles are taken over the calls
   on the fixed families; the seeded calls count in wall_s, in the checks
   and in the per-layer rows.

   Set-up ends by dropping every node but the pool's functions from the
   managers (Bdd.gc), and each circuit's calls start from a collected
   heap: a full major GC runs before them, outside the timed calls and
   outside wall_s, which sums the functions' call sequences.  Left to
   itself, the GC collected one circuit's garbage while timing another's
   calls, so a call's time and the process's peak RSS depended on what
   the seed had drawn: peak RSS over four seeds read 221-261 MB that way
   and 180-191 MB this way. *)

let draws = 3
let target = 1_000
let outputs = 4
let products = 2

let fixed_circuits () =
  [
    Generate.shifter_datapath ~width:10;
    Generate.shifter_datapath ~width:12;
    Generate.multiplier ~bits:7;
  ]

type pool = {
  fixed : Pool.entry list;
  seeded : Pool.entry list;
  compile_s : float;
}

let build_pool seed =
  let compile_s = ref 0.0 in
  let compiled f c =
    let r, t = Measure.time (fun () -> f ~min_nodes:500 c) in
    compile_s := !compile_s +. t;
    r
  in
  let fixed =
    List.concat_map (compiled Pool.entries_of_circuit) (fixed_circuits ())
  in
  let rng = Random.State.make [| 0xa99; seed |] in
  let netlists =
    List.concat
      (List.init draws (fun _ ->
           let s = Random.State.bits rng in
           [
             Generate.random_netlist ~inputs:16 ~gates:90 ~outputs:6 ~seed:s;
             Generate.random_netlist ~inputs:20 ~gates:140 ~outputs:6
               ~seed:(s + 1);
           ]))
  in
  let nearest n entries =
    let off e = abs (Bdd.size e.Pool.f - target) in
    List.filteri
      (fun i _ -> i < n)
      (List.stable_sort (fun a b -> compare (off a) (off b)) entries)
  in
  let seeded =
    nearest outputs
      (List.concat_map (compiled Pool.entries_of_circuit) netlists)
    @ nearest products
        (List.concat_map (compiled Pool.product_entries_of_circuit) netlists)
  in
  (* Only the pool's functions stay in their managers' unique tables; the
     compilation's intermediate nodes go, as a program keeping these
     functions would let them. *)
  let entries = fixed @ seeded in
  List.iter
    (fun man ->
      ignore
        (Bdd.gc man
           ~roots:
             (List.filter_map
                (fun e -> if e.Pool.man == man then Some e.Pool.f else None)
                entries)))
    (Measure.distinct (List.map (fun e -> e.Pool.man) entries));
  { fixed; seeded; compile_s = !compile_s }

let methods =
  [ "rua"; "hb"; "sp"; "ua"; "c1"; "c2"; "cofactor"; "disjoint"; "band" ]

type output = Under of Bdd.t | Pair of Decomp.pair

let size = function
  | Under r -> Bdd.size r
  | Pair p -> Bdd.shared_size [ p.Decomp.g; p.Decomp.h ]

(* The calls after RUA, whose result size is the HB/SP budget, as in
   bench/main.exe table2. *)
let call man f ~budget = function
  | "hb" -> Under (Heavy_branch.approximate man ~threshold:budget f)
  | "sp" -> Under (Short_paths.approximate man ~threshold:budget f)
  | "ua" -> Under (Under_approx.approximate man f)
  | "c1" -> Under (Compound.c1 man f)
  | "c2" -> Under (Compound.c2 man f)
  | "cofactor" -> Pair (Decomp.conj_cofactor man f)
  | "disjoint" -> Pair (Decomp_points.disjoint man f)
  | "band" -> Pair (Decomp_points.band man f)
  | m -> invalid_arg m

type call = {
  meth : string;
  entry : Pool.entry;
  fixed : bool;
  seconds : float;
  out : (output, exn) result;
}

let rep ~seed ~index ~traced:_ =
  let pool, setup_s = Measure.time (fun () -> build_pool seed) in
  let next_id = ref 0 in
  let timed ~fixed meth entry thunk =
    incr next_id;
    let t0 = Measure.now () in
    match Measure.op ~name:("core." ^ meth) ~id:!next_id thunk with
    | r, seconds -> { meth; entry; fixed; seconds; out = Ok r }
    | exception e ->
        { meth; entry; fixed; seconds = Measure.now () -. t0; out = Error e }
  in
  let protocol ~fixed entry =
    let man = entry.Pool.man and f = entry.Pool.f in
    let rua =
      timed ~fixed "rua" entry (fun () -> Under (Remap.approximate man f))
    in
    let budget = match rua.out with Ok r -> size r | Error _ -> Bdd.size f in
    rua
    :: List.map
         (fun m -> timed ~fixed m entry (fun () -> call man f ~budget m))
         (List.tl methods)
  in
  (* each function's calls timed as a block, a circuit's first after a
     full major GC; the blocks take turns on the CPUs *)
  let pass () =
    List.fold_left
      (fun (calls, wall, prev, i) (fixed, entry) ->
        let man = entry.Pool.man in
        if not (Option.fold ~none:false ~some:(( == ) man) prev) then
          Measure.settle ();
        Measure.place (index + i);
        let cs, dt = Measure.time (fun () -> protocol ~fixed entry) in
        (calls @ cs, wall +. dt, Some man, i + 1))
      ([], 0.0, None, 0)
      (List.map (fun e -> (true, e)) pool.fixed
      @ List.map (fun e -> (false, e)) pool.seeded)
  in
  let mans = List.map (fun e -> e.Pool.man) (pool.fixed @ pool.seeded) in
  let (results, wall_s, _, _), k = Measure.kernel_delta mans pass in
  Measure.unplace ();
  let rss_mb = Measure.peak_rss_mb "self" in
  let rng = Random.State.make [| 0xc4ec; seed |] in
  let ok c =
    let man = c.entry.Pool.man and f = c.entry.Pool.f in
    match c.out with
    | Ok (Under r) -> Checks.subset rng man ~f r
    | Ok (Pair p) -> Checks.recompose rng man ~f p
    | Error _ -> false
  in
  let per_method m =
    let xs =
      List.filter_map
        (fun c ->
          match c.out with
          | Ok r when c.meth = m -> Some (c.seconds, float_of_int (size r))
          | _ -> None)
        results
    in
    let secs = List.map fst xs in
    [
      (Printf.sprintf "core.%s_ms" m, 1e3 *. Measure.sum secs);
      (Printf.sprintf "core.%s_p50_us" m, 1e6 *. Measure.median secs);
      (Printf.sprintf "core.%s_nodes" m, Measure.geomean (List.map snd xs));
    ]
  in
  {
    Rep.setup_s;
    wall_s;
    lat = List.filter_map (fun c -> if c.fixed then Some c.seconds else None) results;
    attempted = List.length results;
    failed = List.length (List.filter (fun c -> not (ok c)) results);
    rss_mb;
    layers =
      List.concat_map per_method methods
      @ (("circuit.compile_s", pool.compile_s) :: Measure.kernel_rows k);
  }
