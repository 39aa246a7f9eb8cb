let run ?(max_iter = max_int) ?time_limit ?node_limit ?gc_start
    ?(sift = false) ?degrade:meth ?checkpoint ?resume ?pool trans =
  let man = Trans.man trans in
  let start = Sys.time () and t0 = Obs.Timing.wall () in
  let compiled = trans.Trans.compiled in
  let maint = Traversal.make_maintenance ?gc_start sift in
  let deg = Resil.Degrade.create ?meth () in
  let trans = ref trans in
  let init = compiled.Compile.init in
  let reached = ref init and frontier = ref init in
  let iterations = ref 0 and images = ref 0 in
  (match Traversal.resume man resume with
  | None -> ()
  | Some (it, im, r, f) ->
      iterations := it;
      images := im;
      reached := r;
      frontier := f);
  let peak_live = ref (Bdd.unique_size man) and peak_product = ref 0 in
  let exact = ref false in
  let expired () =
    match time_limit with
    | Some l -> Obs.Timing.wall () -. t0 > l
    | None -> false
  in
  Bdd.set_node_limit man node_limit;
  let roots () = !reached :: !frontier :: Trans.roots !trans in
  (* one BFS step; a node-budget blowup degrades the frontier instead of
     aborting, so [frontier] is in general the whole unexpanded set, not
     just the newest ring *)
  let step () =
    Obs.Trace.with_span "bfs.iter" @@ fun () ->
    let (img, stats), _expanded, leftover =
      Resil.Degrade.image deg man ~roots ~reached:!reached
        ~compute:(fun f -> Image.image ?pool !trans f)
        !frontier
    in
    incr images;
    peak_product := max !peak_product stats.Image.peak_product;
    (* with a pool, the frontier bookkeeping forks on its workers too *)
    let fresh = Bdd.bdiff ?pool man img !reached in
    peak_live := max !peak_live (Bdd.unique_size man);
    reached := Bdd.bor ?pool man !reached fresh;
    frontier := Bdd.bor ?pool man leftover fresh;
    if Bdd.is_false !frontier then begin
      exact := true;
      raise Exit
    end;
    incr iterations;
    if Reach_obs.on () then
      Reach_obs.note_iteration ~frontier:(Bdd.size !frontier)
        ~reached:(Bdd.size !reached);
    (match Traversal.maintain maint man (roots ()) with
    | r :: f :: rest ->
        reached := r;
        frontier := f;
        trans := Trans.replace_roots !trans rest
    | _ -> assert false);
    Traversal.checkpoint checkpoint man ~iterations:!iterations
      ~images:!images ~reached:!reached ~frontier:!frontier
  in
  (try
     while !iterations < max_iter && not (expired ()) do
       try step () with
       | Resil.Degrade.Exhausted ->
           (* even a single-cube frontier does not fit: stop gracefully
              with the (sound) reached set accumulated so far *)
           raise Exit
       | Bdd.Node_limit ->
           (* a blowup in the bookkeeping outside the guarded image step
              (or an injected fault there): same graceful stop *)
           raise Exit
     done
   with Exit -> ());
  Bdd.set_node_limit man None;
  {
    Traversal.reached = !reached;
    states =
      Bdd.count_minterms man !reached
        ~nvars:(Array.length compiled.Compile.latches);
    iterations = !iterations;
    images = !images;
    peak_live_nodes = !peak_live;
    peak_product = !peak_product;
    partial_approximations = 0;
    cpu_seconds = Sys.time () -. start;
    exact = !exact;
    degrade = Resil.Degrade.certificate ~exact:!exact deg;
  }
