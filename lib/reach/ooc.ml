(* Out-of-core reachability (see the mli).

   Two regimes.  Hot: the classic BFS loop, reached and frontier both in
   the unique table, images unguarded (no degrade ladder) — a Node_limit
   triggers a gc, and if the table is still more than half full the
   reached set migrates to the cold tier.  Cold: the reached set is a
   Store.Tiered handle; each iteration images the hot frontier, demotes
   the image, diffs and accumulates it against the cold reached set with
   the streaming apply, and promotes only the fresh states back as the
   next frontier.  The degrade ladder guards the image step in the cold
   regime (its restrict rung is disabled by passing an empty reached set,
   keeping the run exact); only a frontier that cannot be promoted even
   after gc, an exhausted ladder, or a full disk end the run early — all
   soundly, with the states accumulated so far. *)

type result = {
  reached : Bdd.serialized;
  states : float;
  iterations : int;
  images : int;
  migrations : int;
  peak_hot_nodes : int;
  peak_total_nodes : int;
  peak_cold_nodes : int;
  spilled_bytes : int;
  cpu_seconds : float;
  exact : bool;
  degrade : Resil.Degrade.cert;
}

let pp fmt r =
  Format.fprintf fmt
    "states=%.6g iters=%d images=%d migrations=%d peak_hot=%d peak_total=%d \
     cold=%d spilled=%dB time=%.2fs%s"
    r.states r.iterations r.images r.migrations r.peak_hot_nodes
    r.peak_total_nodes r.peak_cold_nodes r.spilled_bytes r.cpu_seconds
    (if r.exact then "" else " (INCOMPLETE)")

type regime =
  | Hot of Bdd.t ref (* reached, in the unique table *)
  | Cold of Store.Tiered.handle ref (* reached, in the cold tier *)

let run ?(max_iter = max_int) ?time_limit ?store_dir ?mem_bound
    ?disk_budget_bytes ~hot_budget trans =
  let man = Trans.man trans in
  let start = Sys.time () and t0 = Obs.Timing.wall () in
  let compiled = trans.Trans.compiled in
  let nlatches = Array.length compiled.Compile.latches in
  let deg = Resil.Degrade.create () in
  let store = Store.Tiered.create ?dir:store_dir ?mem_bound ?disk_budget_bytes man in
  let init = compiled.Compile.init in
  let regime = ref (Hot (ref init)) in
  let frontier = ref init in
  let iterations = ref 0 and images = ref 0 and migrations = ref 0 in
  let peak_hot = ref (Bdd.unique_size man) in
  let peak_total = ref !peak_hot in
  let exact = ref false and finished = ref false in
  let hot_faults = ref 0 in
  let expired () =
    match time_limit with
    | Some l -> Obs.Timing.wall () -. t0 > l
    | None -> false
  in
  let roots () =
    let base = !frontier :: Trans.roots trans in
    match !regime with Hot r -> !r :: base | Cold _ -> base
  in
  let note_peaks () =
    peak_hot := max !peak_hot (Bdd.unique_size man);
    peak_total :=
      max !peak_total (Bdd.unique_size man + Store.Tiered.cold_nodes store)
  in
  let safe_gc () = Resil.Degrade.collect man (roots ()) in
  let migrate reached =
    Obs.Trace.with_span "ooc.migrate" @@ fun () ->
    let h = Store.Tiered.demote store !reached in
    (* the run's true peak population: the hot copy (still in the unique
       table until the gc below) plus its fresh cold twin *)
    note_peaks ();
    incr migrations;
    if Obs.Metrics.recording () then
      Obs.Metrics.inc
        (Obs.Metrics.counter Obs.Metrics.default "reach.ooc.migrations")
        1;
    regime := Cold (ref h);
    (* the hot copy of the reached set is garbage now *)
    safe_gc ()
  in
  (* ---- hot regime: plain BFS step, no ladder ---- *)
  let hot_step reached =
    Obs.Trace.with_span "ooc.iter" @@ fun () ->
    let img, _stats = Image.image trans !frontier in
    incr images;
    note_peaks ();
    let fresh = Bdd.bdiff man img !reached in
    reached := Bdd.bor man !reached fresh;
    frontier := fresh;
    note_peaks ();
    hot_faults := 0;
    if Bdd.is_false !frontier then begin
      exact := true;
      finished := true
    end
    else incr iterations
  in
  (* ---- cold regime ---- *)
  let promote_frontier fresh_h leftover =
    match Store.Tiered.promote store fresh_h with
    | fresh_b -> Some (Bdd.bor man fresh_b leftover)
    | exception Bdd.Node_limit -> (
        safe_gc ();
        match Store.Tiered.promote store fresh_h with
        | fresh_b -> Some (Bdd.bor man fresh_b leftover)
        | exception Bdd.Node_limit -> None)
  in
  let cold_step reached_h =
    Obs.Trace.with_span "ooc.iter" @@ fun () ->
    let (img, _stats), _expanded, leftover =
      (* reached = ff disables the restrict rung: expansion may shrink
         (leftover grows) but never adds already-reached states, so the
         fixpoint test below stays exact *)
      Resil.Degrade.image deg man ~roots ~reached:(Bdd.ff man)
        ~compute:(fun f -> Image.image trans f)
        !frontier
    in
    incr images;
    note_peaks ();
    let img_h = Store.Tiered.demote store img in
    note_peaks ();
    (* the unexpanded remainder must stay in [frontier]: it is both the
       rest of the work and the only gc root keeping it alive *)
    frontier := leftover;
    safe_gc ();
    let fresh_h = Store.Tiered.apply store Store.Stream.Diff img_h !reached_h in
    Store.Tiered.drop store img_h;
    note_peaks ();
    if Store.Tiered.is_const store fresh_h = Some 0 && Bdd.is_false !frontier
    then begin
      Store.Tiered.drop store fresh_h;
      exact := true;
      finished := true
    end
    else begin
      let r' = Store.Tiered.apply store Store.Stream.Or !reached_h fresh_h in
      Store.Tiered.drop store !reached_h;
      reached_h := r';
      note_peaks ();
      (match promote_frontier fresh_h !frontier with
      | Some f ->
          Store.Tiered.drop store fresh_h;
          frontier := f;
          incr iterations
      | None ->
          (* the fresh set does not fit hot even after gc: stop soundly
             with the reached set accumulated so far *)
          Store.Tiered.drop store fresh_h;
          finished := true);
      (* keep only metadata mapped between iterations *)
      Store.Tiered.spill store
    end
  in
  Bdd.set_node_limit man (Some hot_budget);
  (try
     while (not !finished) && !iterations < max_iter && not (expired ()) do
       match !regime with
       | Hot reached -> (
           try hot_step reached
           with Bdd.Node_limit ->
             safe_gc ();
             incr hot_faults;
             if 2 * Bdd.unique_size man > hot_budget || !hot_faults >= 3 then
               migrate reached)
       | Cold reached_h -> (
           try cold_step reached_h with
           | Store.Tiered.Disk_full -> finished := true
           | Resil.Degrade.Exhausted -> finished := true
           | Bdd.Node_limit ->
               (* a blowup past both the ladder and the promote retry:
                  retrying the whole step would re-image a half-updated
                  frontier, so stop soundly instead *)
               finished := true)
     done
   with e ->
     Bdd.set_node_limit man None;
     Store.Tiered.close store;
     raise e);
  Bdd.set_node_limit man None;
  let reached_s, states =
    match !regime with
    | Hot reached ->
        ( Bdd.export man !reached,
          Bdd.count_minterms man !reached ~nvars:nlatches )
    | Cold reached_h ->
        (* the streaming count ranges over every manager variable; scale
           back down to the latch variables the set actually mentions *)
        ( Store.Tiered.to_serialized store !reached_h,
          ldexp
            (Store.Tiered.count_minterms store !reached_h)
            (nlatches - Bdd.nvars man) )
  in
  let peak_cold = Store.Tiered.peak_cold_nodes store in
  let spilled = Store.Tiered.spilled_bytes store in
  Store.Tiered.close store;
  {
    reached = reached_s;
    states;
    iterations = !iterations;
    images = !images;
    migrations = !migrations;
    peak_hot_nodes = !peak_hot;
    peak_total_nodes = !peak_total;
    peak_cold_nodes = peak_cold;
    spilled_bytes = spilled;
    cpu_seconds = Sys.time () -. start;
    exact = !exact;
    degrade = Resil.Degrade.certificate ~exact:!exact deg;
  }
