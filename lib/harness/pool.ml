(* The function pool for the paper's Tables 2–4.

   The paper draws 7157 output and next-state functions from a benchmark
   suite and keeps the 336 with at least 5000 nodes.  The substitute pool
   (DESIGN.md §2) applies the same selection protocol to the functions of
   the synthetic circuits plus structured random netlists, with the node
   threshold scaled to CI-sized experiments. *)

type entry = { man : Bdd.man; f : Bdd.t; label : string; nvars : int }

let entries_of_circuit ~min_nodes c =
  let compiled = Compile.compile c in
  let man = compiled.Compile.man in
  let nvars = Bdd.nvars man in
  let named =
    List.map (fun (n, f) -> (Circuit.name c ^ "." ^ n, f))
      compiled.Compile.output_fns
    @ Array.to_list
        (Array.map
           (fun l -> (Circuit.name c ^ "." ^ l.Compile.name ^ "'", l.Compile.fn))
           compiled.Compile.latches)
  in
  List.filter_map
    (fun (label, f) ->
      if Bdd.size f >= min_nodes then Some { man; f; label; nvars } else None)
    named

let default_circuits () =
  [
    Generate.microsequencer ~addr_bits:5 ~stack_depth:3;
    Generate.microsequencer ~addr_bits:6 ~stack_depth:2;
    Generate.microsequencer ~addr_bits:7 ~stack_depth:3;
    Generate.shifter_datapath ~width:8;
    Generate.shifter_datapath ~width:10;
    Generate.shifter_datapath ~width:12;
    Generate.handshake_pipeline ~stages:10;
    Generate.dense_controller ~latches:28 ~seed:11;
    Generate.dense_controller ~latches:32 ~seed:23;
    Generate.dense_controller ~latches:36 ~seed:37;
    Generate.lfsr ~bits:16;
    Generate.multiplier ~bits:6;
    Generate.multiplier ~bits:7;
    Generate.alu ~width:10;
    Generate.alu ~width:12;
  ]

let default_random () =
  List.concat_map
    (fun seed ->
      [
        Generate.random_netlist ~inputs:16 ~gates:90 ~outputs:6 ~seed;
        Generate.random_netlist ~inputs:20 ~gates:140 ~outputs:6
          ~seed:(seed + 1000);
        Generate.random_netlist ~inputs:24 ~gates:200 ~outputs:4
          ~seed:(seed + 2000);
      ])
    [ 1; 2; 3; 4; 5; 6 ]

(* Sparse entries: conjunctions of output cones.  The paper's pool is
   dominated by next-state functions of industrial FSMs, which are very
   sparse (minterm fractions around 1e-5 of the space); plain random cones
   are dense (fractions near 1/2), a regime that flatters short-path
   subsetting.  Products of three outputs restore the sparse regime. *)
let product_entries_of_circuit ~min_nodes c =
  let compiled = Compile.compile c in
  let man = compiled.Compile.man in
  let nvars = Bdd.nvars man in
  let rec triples k = function
    | a :: b :: c' :: rest ->
        let f = Bdd.band man a (Bdd.band man b c') in
        (Printf.sprintf "%s.and3_%d" (Circuit.name c) k, f)
        :: triples (k + 1) rest
    | _ -> []
  in
  List.filter_map
    (fun (label, f) ->
      if Bdd.size f >= min_nodes then Some { man; f; label; nvars } else None)
    (triples 0 (List.map snd compiled.Compile.output_fns))

let build ?(min_nodes = 500) ?circuits ~jobs () =
  Obs.Trace.with_span "pool.build" @@ fun () ->
  let circuits =
    match circuits with
    | Some cs -> cs
    | None -> default_circuits () @ default_random ()
  in
  (* one task per circuit compilation; each compiles into its own fresh
     manager, so the tasks are independent and can run on any domain *)
  let tasks =
    List.map (fun c -> (Circuit.name c, fun () -> entries_of_circuit ~min_nodes c))
      circuits
    @ List.map
        (fun c ->
          (Circuit.name c ^ ".and3", fun () ->
            product_entries_of_circuit ~min_nodes c))
        (default_random ())
  in
  Mt.Runner.run ~jobs
    (List.map
       (fun (label, t) -> Mt.Runner.job ~label (fun _man -> t ()))
       tasks)
  |> List.concat_map (fun (r : _ Mt.Runner.result) ->
         match r.Mt.Runner.outcome with
         | Mt.Runner.Done entries -> entries
         | o ->
             failwith
               (Format.asprintf "Pool.build: job %s %a"
                  r.Mt.Runner.report.Mt.Runner.label Mt.Runner.pp_outcome o))

let describe entries =
  let sizes = List.map (fun e -> float_of_int (Bdd.size e.f)) entries in
  Printf.sprintf "%d functions, |f| mean %.1f (min %.0f, max %.0f)"
    (List.length entries)
    (Stats.geometric_mean sizes)
    (List.fold_left min infinity sizes)
    (List.fold_left max neg_infinity sizes)
