(* Budgets and the one degradation ladder (see the mli). *)

type budget = { node_budget : int option; deadline : float option }

let no_budget = { node_budget = None; deadline = None }

exception Deadline

let within budget man f =
  match budget with
  | { node_budget = None; deadline = None } -> f ()
  | { node_budget; deadline } ->
      Option.iter
        (fun b -> Bdd.set_node_limit man (Some (Bdd.unique_size man + b)))
        node_budget;
      Option.iter
        (fun d ->
          let cutoff = Obs.Timing.wall () +. d in
          Bdd.set_tick man
            (Some
               (fun () -> if Obs.Timing.wall () > cutoff then raise Deadline)))
        deadline;
      Fun.protect
        ~finally:(fun () ->
          Bdd.set_node_limit man None;
          Bdd.set_tick man None)
        f

type step = {
  call : int;
  rung : string;
  size_before : int;
  size_after : int;
  density_before : float;
  density_after : float;
}

type info = {
  steps_approximated : int;
  exhausted : bool;
  density_stats : step list;
}

type cert = Exact | Degraded of info

let pp_cert fmt = function
  | Exact -> Format.pp_print_string fmt "exact"
  | Degraded { steps_approximated; exhausted; density_stats } ->
      let gain =
        List.fold_left
          (fun acc s ->
            if s.density_before > 0. then
              max acc (s.density_after /. s.density_before)
            else acc)
          0. density_stats
      in
      Format.fprintf fmt "degraded(%d step%s%s%s)" steps_approximated
        (if steps_approximated = 1 then "" else "s")
        (if gain > 0. then Format.asprintf ", max-density x%.2g" gain else "")
        (if exhausted then ", exhausted" else "")

type t = {
  meth : Approx.meth;
  mutable calls : int;
  mutable napprox : int;
  mutable exhausted : bool;
  mutable steps : step list; (* newest first *)
}

exception Exhausted

let create ?(meth = Approx.HB) () =
  { meth; calls = 0; napprox = 0; exhausted = false; steps = [] }

let steps_approximated t = t.napprox

let certificate ~exact t =
  if exact then Exact
  else
    Degraded
      {
        steps_approximated = t.napprox;
        exhausted = t.exhausted;
        density_stats = List.rev t.steps;
      }

module M = struct
  open Obs

  let reg = Metrics.default
  let steps = Metrics.counter reg "resil.degrade.steps"
  let exhausted = Metrics.counter reg "resil.degrade.exhausted"
  let rung = Metrics.histogram reg "resil.degrade.rung"
end

(* The fault injector may fire at gc entry; a failed collection only
   means less memory was reclaimed, so a forced Node_limit there must not
   abort the caller. *)
let collect man roots =
  try ignore (Bdd.gc man ~roots) with Bdd.Node_limit -> ()

let walk ?(budget = no_budget) man ~collect ~rungs exact =
  let deadline = ref false and table_full = ref false in
  let attempt f =
    match within budget man f with
    | r -> r
    | exception ((Bdd.Node_limit | Deadline | Bdd.Table_full) as e) ->
        deadline := !deadline || e == Deadline;
        table_full := !table_full || e == Bdd.Table_full;
        collect ();
        None
  in
  let exact () = Some (exact ()) in
  let first = match attempt exact with None -> attempt exact | r -> r in
  match first with
  | Some v -> Some (v, [])
  | None ->
      Obs.Trace.with_span "resil.degrade" @@ fun () ->
      let rescued name v =
        ( v,
          (if !deadline then [ "deadline" ] else [])
          @ (if !table_full then [ "table-full" ] else [])
          @ [ name ] )
      in
      List.find_map
        (fun (name, rung) -> Option.map (rescued name) (attempt rung))
        (rungs ())

let image t man ~roots ~reached ~compute frontier =
  t.calls <- t.calls + 1;
  let nothing = Bdd.ff man in
  let rungs () =
    let size0 = Bdd.size frontier in
    let dens0 = Approx.density man frontier in
    (* the under-approximation thresholds descend geometrically so the
       ladder stays short even for huge frontiers *)
    let rec thresholds acc th =
      if th < 32 then List.rev acc else thresholds (th :: acc) (th / 4)
    in
    let mname = Approx.method_name t.meth in
    let subsets =
      (* restrict-minimization: expanded ⊇ frontier but only over
         already-reached states, so soundness is free and no leftover
         needs tracking *)
      ( "restrict",
        fun () ->
          ( Bdd.restrict man frontier
              (Bdd.bor man frontier (Bdd.bnot man reached)),
            nothing ) )
      :: List.map
           (fun th ->
             ( Printf.sprintf "%s@%d" mname th,
               fun () ->
                 let g =
                   Approx.under man
                     ~params:{ Approx.default_params with threshold = th }
                     t.meth frontier
                 in
                 (g, Bdd.bdiff man frontier g) ))
           (thresholds [] (max 32 (size0 / 2)))
      @ [
          (* last resort: one state's worth of frontier — at most one
             node per variable *)
          ( "cube",
            fun () ->
              let g = Bdd.cube_of_literals man (Bdd.any_sat man frontier) in
              (g, Bdd.bdiff man frontier g) );
        ]
    in
    List.mapi
      (fun i (rung, subset) ->
        ( rung,
          fun () ->
            let g, leftover = subset () in
            if Bdd.is_false g || Bdd.equal g frontier then None
            else begin
              let v = compute g in
              t.napprox <- t.napprox + 1;
              t.steps <-
                {
                  call = t.calls;
                  rung;
                  size_before = size0;
                  size_after = Bdd.size g;
                  density_before = dens0;
                  density_after = Approx.density man g;
                }
                :: t.steps;
              if Obs.Metrics.recording () then begin
                Obs.Metrics.inc M.steps 1;
                Obs.Metrics.observe M.rung (i + 1)
              end;
              Some (v, g, leftover)
            end ))
      subsets
  in
  match
    walk man
      ~collect:(fun () -> collect man (roots ()))
      ~rungs
      (fun () -> (compute frontier, frontier, nothing))
  with
  | Some (r, _) -> r
  | None ->
      t.exhausted <- true;
      if Obs.Metrics.recording () then Obs.Metrics.inc M.exhausted 1;
      raise Exhausted
