type params = {
  meth : Approx.meth;
  threshold : int;
  quality : float;
  pimg : (int * int) option;
}

let default = { meth = Approx.RUA; threshold = 0; quality = 1.0; pimg = None }

exception Out_of_budget

let run ?(max_iter = max_int) ?time_limit ?node_limit ?gc_start
    ?(sift = false) ?(params = default) ?checkpoint ?resume ?pool trans =
  let man = Trans.man trans in
  let start = Sys.time () and t0 = Obs.Timing.wall () in
  let nlatches = Array.length trans.Trans.compiled.Compile.latches in
  let maint = Traversal.make_maintenance ?gc_start sift in
  let deg = Resil.Degrade.create ~meth:params.meth () in
  let trans = ref trans in
  let subset_params m threshold =
    { Approx.default_params with threshold; quality = params.quality }
    |> fun p -> Approx.under man ~params:p m
  in
  let partial =
    Option.map
      (fun (limit, threshold) ->
        (limit, fun p -> subset_params params.meth threshold p))
      params.pimg
  in
  let init = (!trans).Trans.compiled.Compile.init in
  let reached = ref init and unexpanded = ref init in
  let iterations = ref 0 and images = ref 0 in
  (match Traversal.resume man resume with
  | None -> ()
  | Some (it, im, r, u) ->
      iterations := it;
      images := im;
      reached := r;
      unexpanded := u);
  let peak_live = ref (Bdd.unique_size man) and peak_product = ref 0 in
  let papprox = ref 0 in
  let expired () =
    match time_limit with
    | Some l -> Obs.Timing.wall () -. t0 > l
    | None -> false
  in
  Bdd.set_node_limit man node_limit;
  let roots () = !reached :: !unexpanded :: Trans.roots !trans in
  let step () =
    Obs.Trace.with_span "hd.iter" @@ fun () ->
    let extract () =
      (* below the size target the methods return their input unchanged;
         skip the pass *)
      if params.threshold > 0 && Bdd.size !unexpanded <= params.threshold
      then !unexpanded
      else subset_params params.meth params.threshold !unexpanded
    in
    let dense =
      try extract ()
      with Bdd.Node_limit ->
        Resil.Degrade.collect man (roots ());
        extract ()
    in
    let dense = if Bdd.is_false dense then !unexpanded else dense in
    (* a node-budget blowup shrinks [dense] down the degradation ladder;
       whatever it leaves behind stays in [unexpanded] because only the
       expanded part is subtracted below *)
    let (img, stats), expanded, _leftover =
      Resil.Degrade.image deg man ~roots ~reached:!reached
        ~compute:(fun d -> Image.image ?partial ?pool !trans d)
        dense
    in
    incr images;
    peak_product := max !peak_product stats.Image.peak_product;
    papprox := !papprox + stats.Image.approximations;
    let fresh = Bdd.bdiff man img !reached in
    reached := Bdd.bor man !reached fresh;
    unexpanded := Bdd.bor man (Bdd.bdiff man !unexpanded expanded) fresh;
    incr iterations;
    peak_live := max !peak_live (Bdd.unique_size man);
    if Reach_obs.on () then
      Reach_obs.note_iteration ~frontier:(Bdd.size !unexpanded)
        ~reached:(Bdd.size !reached);
    (match Traversal.maintain maint man (roots ()) with
    | r :: u :: rest ->
        reached := r;
        unexpanded := u;
        trans := Trans.replace_roots !trans rest
    | _ -> assert false);
    Traversal.checkpoint checkpoint man ~iterations:!iterations
      ~images:!images ~reached:!reached ~frontier:!unexpanded
  in
  (* run a step under the node ceiling: the degradation ladder absorbs
     blowups inside the image; anything it cannot absorb — or a blowup in
     the bookkeeping around it — ends the expansion *)
  let guarded_step () =
    try step ()
    with Resil.Degrade.Exhausted | Bdd.Node_limit -> raise Out_of_budget
  in
  let expand_round () =
    try
      while
        (not (Bdd.is_false !unexpanded))
        && !iterations < max_iter
        && not (expired ())
      do
        guarded_step ()
      done;
      true
    with Out_of_budget -> false
  in
  let in_budget = expand_round () in
  (* partial images may have dropped successors: certify closure with an
     exact image of the result, and resume if states were missed *)
  let exact = ref (in_budget && Bdd.is_false !unexpanded) in
  if params.pimg <> None && !exact then begin
    let closure_image () =
      try Some (fst (Image.image ?pool !trans !reached))
      with Bdd.Node_limit -> None
    in
    let rec closure () =
      Obs.Trace.with_span "hd.closure" @@ fun () ->
      if !iterations >= max_iter || expired () then exact := false
      else
        match closure_image () with
        | None -> exact := false
        | Some img ->
            incr images;
            let missed = Bdd.bdiff man img !reached in
            if Bdd.is_false missed then exact := true
            else begin
              unexpanded := missed;
              reached := Bdd.bor man !reached missed;
              if expand_round () then closure () else exact := false
            end
    in
    closure ()
  end;
  Bdd.set_node_limit man None;
  {
    Traversal.reached = !reached;
    states = Bdd.count_minterms man !reached ~nvars:nlatches;
    iterations = !iterations;
    images = !images;
    peak_live_nodes = !peak_live;
    peak_product = !peak_product;
    partial_approximations = !papprox;
    cpu_seconds = Sys.time () -. start;
    exact = !exact;
    degrade = Resil.Degrade.certificate ~exact:!exact deg;
  }
