(* Request execution and the per-request degradation ladder (see mli). *)

exception Refused of string
(* A failure with a clean message for the Error reply (unknown handle,
   exhausted ladder, out-of-range argument). *)

let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt

(* Guard rails on client-supplied indices: a hostile Lit/Exists request
   must not make the server allocate per-variable arrays without bound. *)
let var_cap = 65_536

let check_var v = if v < 0 || v >= var_cap then refuse "variable %d out of range" v

let get session h =
  try Session.get session h with Not_found -> refuse "unknown handle %d" h

module M = struct
  let table_full_degraded =
    Obs.Metrics.counter Obs.Metrics.default "serve.table_full_degraded"
end

(* Resil.Degrade's walk per request, with heavy-branch under-approximated
   operands at shrinking thresholds as the rungs of monotone requests.
   The budget is re-armed per attempt, so a cancelled exact attempt
   leaves the cheaper rungs their full deadline (worst-case wall clock
   O(rungs) x deadline). *)
let budgeted limits session ~monotone compute =
  let rungs () =
    let rec from t =
      if t < 16 then []
      else
        (Printf.sprintf "HB@%d" t, fun () -> Some (compute (Some t)))
        :: from (t / 4)
    in
    if not monotone then []
    else
      from
        (match limits.Resil.Degrade.node_budget with
        | Some b -> max 16 (b / 8)
        | None -> 4096)
  in
  match
    Resil.Degrade.walk ~budget:limits (Session.man session)
      ~collect:(fun () -> Session.gc session)
      ~rungs
      (fun () -> compute None)
  with
  | Some (f, []) -> (f, Proto.Exact)
  | Some (f, trail) ->
      if List.mem "table-full" trail && Obs.Metrics.recording () then
        Obs.Metrics.inc M.table_full_degraded 1;
      (f, Proto.Degraded trail)
  | None when monotone -> refuse "budget exhausted (ladder ran dry)"
  | None -> refuse "budget exhausted (request is not degradable)"

(* Heavy-branch subset of an operand for the degraded rungs: strictly
   below f, so any monotone combination of subsets stays below the exact
   answer. *)
let shrink man thr f =
  match thr with
  | None -> f
  | Some t ->
      Approx.under man
        ~params:{ Approx.default_params with threshold = t }
        Approx.HB f

(* --- certificates ----------------------------------------------------- *)

let cert_of_degrade (c : Resil.Degrade.cert) ~exact =
  match c with
  | Resil.Degrade.Exact ->
      if exact then Proto.Exact else Proto.Degraded [ "cut-short" ]
  | Resil.Degrade.Degraded info ->
      let rungs =
        List.fold_left
          (fun acc (s : Resil.Degrade.step) ->
            if List.mem s.rung acc then acc else s.rung :: acc)
          []
          info.Resil.Degrade.density_stats
      in
      let rungs = List.rev rungs in
      let rungs =
        if info.Resil.Degrade.exhausted then rungs @ [ "exhausted" ]
        else rungs
      in
      Proto.Degraded (if rungs = [] then [ "cut-short" ] else rungs)

let degraded = function
  | Proto.Handle { cert = Proto.Degraded _; _ }
  | Proto.Reach_done { cert = Proto.Degraded _; _ } ->
      true
  | _ -> false

(* --- request execution ------------------------------------------------ *)

let apply ?pool limits session op =
  let man = Session.man session in
  (* with a pool, the boolean connectives fork across its domains; they
     are bit-identical to the sequential kernel, so replies (and their
     certificates) do not depend on the pool's presence *)
  let monotone =
    match op with
    | Proto.And _ | Proto.Or _ | Proto.Exists _ -> true
    | Proto.Not _ | Proto.Xor _ | Proto.Ite _ | Proto.Forall _ -> false
  in
  (* resolve handles before entering the ladder so an unknown handle is a
     clean error, not a budget failure *)
  let f, cert =
    match op with
    | Proto.Not a ->
        let a = get session a in
        budgeted limits session ~monotone (fun _ -> Bdd.bnot man a)
    | Proto.And (a, b) ->
        let a = get session a and b = get session b in
        budgeted limits session ~monotone (fun thr ->
            Bdd.band ?pool man (shrink man thr a) (shrink man thr b))
    | Proto.Or (a, b) ->
        let a = get session a and b = get session b in
        budgeted limits session ~monotone (fun thr ->
            Bdd.bor ?pool man (shrink man thr a) (shrink man thr b))
    | Proto.Xor (a, b) ->
        let a = get session a and b = get session b in
        budgeted limits session ~monotone (fun _ -> Bdd.bxor ?pool man a b)
    | Proto.Ite (a, b, c) ->
        let a = get session a and b = get session b and c = get session c in
        budgeted limits session ~monotone (fun _ -> Bdd.ite ?pool man a b c)
    | Proto.Exists (vs, a) ->
        List.iter check_var vs;
        (* materialize the variables: Bdd.cube rejects indices the manager
           has not seen, but quantifying an absent variable is just a no-op *)
        List.iter (fun v -> ignore (Bdd.ithvar man v)) vs;
        let a = get session a in
        budgeted limits session ~monotone (fun thr ->
            Bdd.exists man ~vars:(Bdd.cube man vs) (shrink man thr a))
    | Proto.Forall (vs, a) ->
        List.iter check_var vs;
        List.iter (fun v -> ignore (Bdd.ithvar man v)) vs;
        let a = get session a in
        budgeted limits session ~monotone (fun _ ->
            Bdd.forall man ~vars:(Bdd.cube man vs) a)
  in
  Proto.Handle { id = Session.put session f; size = Bdd.size f; cert }

let compile limits session ~name ~blif =
  let man = Session.man session in
  let circuit =
    try Blif.parse_string blif
    with Blif.Parse_error m -> refuse "BLIF parse error: %s" m
  in
  match Session.arena session with
  | Some arena -> (
      (* content-addressed sharing: the first session to compile this
         BLIF publishes its outputs as arena segments; every later
         session views them zero-copy — no recompile, no re-import.
         The claim is single-flight: concurrent compiles of the same
         source block on the first one's publish instead of racing to
         publish duplicates *)
      Session.add_model session name circuit;
      match Arena.catalog_claim arena ~key:blif with
      | `Found entries ->
          Proto.Handles
            (List.map
               (fun (out, h) ->
                 Session.retain_arena session h;
                 let f = Arena.view arena h in
                 (name ^ "." ^ out, Session.put session f, Bdd.size f))
               entries)
      | `Claimed ->
          let entries =
            try
              let compiled, _cert =
                budgeted limits session ~monotone:false (fun _ ->
                    Compile.compile ~man circuit)
              in
              let entries =
                List.map
                  (fun (out, f) ->
                    let h =
                      Arena.publish_root arena ~name:(name ^ "." ^ out) f
                    in
                    Session.adopt_arena session h;
                    (out, h))
                  compiled.Compile.output_fns
              in
              Arena.catalog_put arena ~key:blif entries;
              entries
            with e ->
              (* a blocked claimant takes over the compute *)
              Arena.catalog_abort arena ~key:blif;
              raise e
          in
          Proto.Handles
            (List.map
               (fun (out, h) ->
                 let f = Arena.view arena h in
                 (name ^ "." ^ out, Session.put session f, Bdd.size f))
               entries))
  | None ->
      let compiled, _cert =
        budgeted limits session ~monotone:false (fun _ ->
            Compile.compile ~man circuit)
      in
      Session.add_model session name circuit;
      let handles =
        List.map
          (fun (out, f) ->
            (name ^ "." ^ out, Session.put session f, Bdd.size f))
          compiled.Compile.output_fns
      in
      Proto.Handles handles

let reach ?pool limits session ~model ~max_iter =
  let circuit =
    match Session.model session model with
    | Some c -> c
    | None -> refuse "unknown model %S (compile it first)" model
  in
  (* Reachability runs in a fresh manager: the engine (and the
     Resil.Degrade ladder inside it) collects garbage against its own
     roots, which would invalidate every other handle if it shared the
     session manager.  Only the reached set crosses back, via export. *)
  let shared =
    match pool with Some p -> Tpool.size p > 1 | None -> false
  in
  let rman = Bdd.create ~shared () in
  if Obs.Kernel.observing () then Obs.Kernel.attach rman;
  if Resil.Fault.enabled () then Resil.Fault.attach rman;
  let compiled = Compile.compile ~man:rman circuit in
  let trans = Trans.build compiled in
  (* the node budget is headroom on top of the compiled machine *)
  let node_limit =
    Option.map
      (fun b -> Bdd.unique_size rman + b)
      limits.Resil.Degrade.node_budget
  in
  let result =
    Bfs.run
      ?max_iter:(if max_iter = 0 then None else Some max_iter)
      ?time_limit:limits.Resil.Degrade.deadline ?node_limit ?pool trans
  in
  let reached =
    Bdd.import (Session.man session) (Bdd.export rman result.Traversal.reached)
  in
  let id = Session.put session reached in
  Proto.Reach_done
    {
      states = result.Traversal.states;
      iterations = result.Traversal.iterations;
      images = result.Traversal.images;
      reached = id;
      reached_size = Bdd.size reached;
      cert = cert_of_degrade result.Traversal.degrade ~exact:result.Traversal.exact;
    }

let handle ?(stats_extra = fun () -> []) ?pool limits session req =
  let man = Session.man session in
  (* Arena-backed sessions share one manager across concurrent domains;
     node limits and tick hooks are manager-global, so arming them for
     one request would cancel its neighbors.  Admission control and the
     arena's table capacity still bound arena-mode resource use. *)
  let limits =
    if Session.arena_backed session then Resil.Degrade.no_budget else limits
  in
  Session.note_request session;
  try
    (* chaos probe: under --faults this simulates a worker crash at
       dispatch (per session, per request).  It lands inside the handler's
       own try, so an injected crash surfaces as an Error reply — the
       contract is that injection never takes the server down. *)
    if Resil.Fault.enabled () then
      Resil.Fault.on_job_dispatch
        ~label:(Printf.sprintf "serve.%d" (Session.id session))
        ~attempt:(Session.requests session);
    match req with
    | Proto.Ping -> Proto.Pong
    | Proto.Lit { var; phase } ->
        check_var var;
        let f = if phase then Bdd.ithvar man var else Bdd.nithvar man var in
        Proto.Handle
          { id = Session.put session f; size = Bdd.size f; cert = Proto.Exact }
    | Proto.Put { bdd } -> (
        match Session.arena session with
        | Some arena ->
            (* published (content-deduplicated) rather than imported: N
               sessions putting the same payload share one segment *)
            let h = Arena.publish_serialized arena bdd in
            Session.adopt_arena session h;
            let f = Arena.view arena h in
            Proto.Handle
              {
                id = Session.put session f;
                size = Bdd.size f;
                cert = Proto.Exact;
              }
        | None ->
            let s = Bdd.serialized_of_string bdd in
            let f, cert =
              budgeted limits session ~monotone:false (fun _ ->
                  Bdd.import man s)
            in
            Proto.Handle
              { id = Session.put session f; size = Bdd.size f; cert })
    | Proto.Fetch { handle } ->
        let f = get session handle in
        Proto.Bdd_payload { bdd = Bdd.serialized_to_string (Bdd.export man f) }
    | Proto.Apply op -> apply ?pool limits session op
    | Proto.Compile { name; blif } -> compile limits session ~name ~blif
    | Proto.Approx { meth; threshold; handle } ->
        let f = get session handle in
        if threshold < 0 then refuse "negative threshold";
        let g, cert =
          budgeted limits session ~monotone:true (fun thr ->
              let threshold =
                match thr with
                | None -> threshold
                | Some t -> if threshold = 0 then t else min threshold t
              in
              Approx.under man
                ~params:{ Approx.default_params with threshold }
                meth f)
        in
        Proto.Handle { id = Session.put session g; size = Bdd.size g; cert }
    | Proto.Decomp { handle; disjunctive } ->
        let f = get session handle in
        if Bdd.is_const f then refuse "cannot decompose a constant";
        let pair, _cert =
          budgeted limits session ~monotone:false (fun _ ->
              if disjunctive then Decomp.disj_cofactor man f
              else Decomp.conj_cofactor man f)
        in
        let { Decomp.g; h } = pair in
        Proto.Pair
          {
            g = Session.put session g;
            g_size = Bdd.size g;
            h = Session.put session h;
            h_size = Bdd.size h;
            shared = Decomp.shared_size pair;
          }
    | Proto.Reach { model; max_iter } ->
        reach ?pool limits session ~model ~max_iter
    | Proto.Count { handle; nvars } ->
        let f = get session handle in
        if nvars < 0 || nvars > var_cap then refuse "nvars out of range";
        Proto.Count_is (Bdd.count_minterms man f ~nvars)
    | Proto.Sat { handle } ->
        let f = get session handle in
        Proto.Sat_is
          (try Some (Bdd.any_sat man f) with Not_found -> None)
    | Proto.Attach _ ->
        (* session attachment is a connection-level concern; the server's
           reader answers it before anything reaches the worker pool *)
        refuse "attach must be the first frame on a connection"
    | Proto.Free { handles } -> Proto.Freed (Session.free session handles)
    | Proto.Stats ->
        Proto.Stats_are
          (("serve.session.id", Session.id session)
          :: ("serve.session.handles", Session.handle_count session)
          :: ("serve.session.requests", Session.requests session)
          :: (stats_extra () @ Bdd.stats man))
  with
  | Refused m -> Proto.Error m
  | Bdd.Corrupt m -> Proto.Error (Printf.sprintf "corrupt BDD payload: %s" m)
  | Bdd.Node_limit -> Proto.Error "node budget exhausted"
  | Bdd.Table_full -> Proto.Error "shared node table full"
  | Resil.Degrade.Deadline -> Proto.Error "deadline exceeded"
  | Resil.Degrade.Exhausted -> Proto.Error "degradation ladder exhausted"
  | e -> Proto.Error (Printf.sprintf "request failed: %s" (Printexc.to_string e))
