type stats = { peak_product : int; approximations : int }

let image ?partial ?pool trans f =
  Obs.Trace.with_span "reach.image" @@ fun () ->
  let man = Trans.man trans in
  let peak = ref 0 in
  let napprox = ref 0 in
  let clip p =
    let size = Bdd.size p in
    peak := max !peak size;
    match partial with
    | Some (limit, approx) when size > limit ->
        incr napprox;
        Reach_obs.note_partial_approx ~size;
        approx p
    | Some _ | None -> p
  in
  (* variables in no cluster can leave the source set immediately *)
  let p0 =
    clip (Bdd.exists man ~vars:trans.Trans.frontier_quantify f)
  in
  let product =
    List.fold_left
      (fun p { Trans.rel; quantify } ->
        if Bdd.is_false p then p
        else clip (Bdd.and_exists ?pool man ~vars:quantify p rel))
      p0 trans.Trans.clusters
  in
  (* [product] is now over next-state variables only *)
  let next = Compile.next_to_cur trans.Trans.compiled product in
  if Reach_obs.on () then Reach_obs.note_image ~size:(Bdd.size next);
  (next, { peak_product = !peak; approximations = !napprox })

let exact trans f = fst (image trans f)

let preimage trans f =
  let man = Trans.man trans in
  let compiled = trans.Trans.compiled in
  let fy = Compile.cur_to_next compiled f in
  (* quantify y and w out of T ∧ f(y) *)
  let vars =
    Bdd.cube man
      (Array.to_list (Compile.next_vars compiled)
      @ Array.to_list (Compile.input_var_array compiled))
  in
  let t = Trans.monolithic compiled in
  Bdd.and_exists man ~vars t fy
