(* Tests for the reachability engine: image computation, exact BFS and
   high-density traversal, all validated against explicit-state search. *)

let small_circuits () =
  [
    Generate.counter ~bits:4;
    Generate.counter_enabled ~bits:4;
    Generate.ring ~bits:5;
    Generate.johnson ~bits:4;
    Generate.lfsr ~bits:5;
    Generate.fifo_controller ~depth:5;
    Generate.arbiter ~clients:4;
    Generate.traffic_light ();
    Generate.microsequencer ~addr_bits:2 ~stack_depth:1;
    Generate.handshake_pipeline ~stages:3;
  ]

let explicit_count c = float_of_int (Hashtbl.length (Sim.reachable c))

let bdd_of_states compiled codes =
  let man = compiled.Compile.man in
  let nl = Array.length compiled.Compile.latches in
  Hashtbl.fold
    (fun code () acc ->
      let cube =
        Bdd.cube_of_literals man
          (List.init nl (fun i ->
               (compiled.Compile.latches.(i).Compile.cur,
                code land (1 lsl i) <> 0)))
      in
      Bdd.bor man acc cube)
    codes (Bdd.ff man)

(* ------------------------------------------------------------------ *)
(* Image                                                              *)
(* ------------------------------------------------------------------ *)

let successors_of_init c =
  (* explicit successors of the initial state over all inputs *)
  let ins = List.map fst (Circuit.inputs c) in
  let nin = List.length ins in
  let out = Hashtbl.create 16 in
  let s0 = Sim.initial_state c in
  for mask = 0 to (1 lsl nin) - 1 do
    let input n =
      let rec idx i = function
        | [] -> assert false
        | x :: _ when x = n -> i
        | _ :: rest -> idx (i + 1) rest
      in
      mask land (1 lsl idx 0 ins) <> 0
    in
    let next, _ = Sim.step c s0 input in
    Hashtbl.replace out (Sim.encode next) ()
  done;
  out

let test_image_of_init () =
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let trans = Trans.build compiled in
      let img = Image.exact trans compiled.Compile.init in
      let expect = bdd_of_states compiled (successors_of_init c) in
      Alcotest.(check bool) (Circuit.name c) true (Bdd.equal img expect))
    (small_circuits ())

let test_image_monolithic_agrees () =
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let man = compiled.Compile.man in
      let trans = Trans.build ~cluster_limit:50 compiled in
      let img = Image.exact trans compiled.Compile.init in
      (* monolithic relation image *)
      let t = Trans.monolithic compiled in
      let vars =
        Bdd.cube man
          (Array.to_list (Compile.cur_vars compiled)
          @ Array.to_list (Compile.input_var_array compiled))
      in
      let mono =
        Compile.next_to_cur compiled
          (Bdd.and_exists man ~vars t compiled.Compile.init)
      in
      Alcotest.(check bool) (Circuit.name c) true (Bdd.equal img mono))
    (small_circuits ())

let test_preimage_contains_init () =
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let man = compiled.Compile.man in
      let trans = Trans.build compiled in
      let img = Image.exact trans compiled.Compile.init in
      let pre = Image.preimage trans img in
      Alcotest.(check bool) (Circuit.name c) true
        (Bdd.leq man compiled.Compile.init pre))
    (small_circuits ())

let test_partial_image_is_subset () =
  let c = Generate.microsequencer ~addr_bits:3 ~stack_depth:2 in
  let compiled = Compile.compile c in
  let man = compiled.Compile.man in
  let trans = Trans.build ~cluster_limit:100 compiled in
  (* grab a meaty source set: a few BFS steps *)
  let s = ref compiled.Compile.init in
  for _ = 1 to 3 do
    s := Bdd.bor man !s (Image.exact trans !s)
  done;
  let exact = Image.exact trans !s in
  let approx p = Approx.under man Approx.RUA p in
  let sub, stats = Image.image ~partial:(10, approx) trans !s in
  Alcotest.(check bool) "subset" true (Bdd.leq man sub exact);
  Alcotest.(check bool) "did approximate" true (stats.Image.approximations > 0)

let test_quantification_schedule () =
  (* the early-quantification cubes of the clusters plus the frontier cube
     must partition the present-state and input variables *)
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let man = compiled.Compile.man in
      let trans = Trans.build ~cluster_limit:40 compiled in
      let seen = Hashtbl.create 32 in
      let record cube =
        List.iter
          (fun v ->
            Alcotest.(check bool) "var quantified once" false
              (Hashtbl.mem seen v);
            Hashtbl.replace seen v ())
          (Bdd.support man cube)
      in
      record trans.Trans.frontier_quantify;
      List.iter (fun cl -> record cl.Trans.quantify) trans.Trans.clusters;
      let expected =
        Array.to_list (Compile.cur_vars compiled)
        @ Array.to_list (Compile.input_var_array compiled)
      in
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: var %d covered" (Circuit.name c) v)
            true (Hashtbl.mem seen v))
        expected;
      (* no variable may be quantified while a later cluster still uses it *)
      let rec check_late = function
        | [] -> ()
        | cl :: rest ->
            List.iter
              (fun v ->
                List.iter
                  (fun later ->
                    Alcotest.(check bool) "not used later" false
                      (List.mem v (Bdd.support man later.Trans.rel)))
                  rest)
              (Bdd.support man cl.Trans.quantify);
            check_late rest
      in
      check_late trans.Trans.clusters)
    [ Generate.lfsr ~bits:6; Generate.microsequencer ~addr_bits:3 ~stack_depth:2 ]

let test_compile_interleaves_cur_next () =
  let c = Generate.johnson ~bits:6 in
  let compiled = Compile.compile c in
  let man = compiled.Compile.man in
  Array.iter
    (fun l ->
      let lc = Bdd.level_of_var man l.Compile.cur
      and ln = Bdd.level_of_var man l.Compile.next in
      Alcotest.(check int) (l.Compile.name ^ " adjacent") 1 (abs (lc - ln)))
    compiled.Compile.latches

(* ------------------------------------------------------------------ *)
(* BFS and high-density traversal                                      *)
(* ------------------------------------------------------------------ *)

let test_bfs_matches_explicit () =
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let trans = Trans.build compiled in
      let r = Bfs.run trans in
      Alcotest.(check bool) (Circuit.name c ^ " exact") true r.Traversal.exact;
      Alcotest.(check (float 1e-6))
        (Circuit.name c) (explicit_count c) r.Traversal.states)
    (small_circuits ())

let test_bfs_reached_set_exactly () =
  let c = Generate.traffic_light () in
  let compiled = Compile.compile c in
  let trans = Trans.build compiled in
  let r = Bfs.run trans in
  let expect = bdd_of_states compiled (Sim.reachable c) in
  Alcotest.(check bool) "same set" true (Bdd.equal r.Traversal.reached expect)

let hd_params meth = { High_density.default with meth }

let test_hd_matches_explicit () =
  List.iter
    (fun c ->
      let expect = explicit_count c in
      List.iter
        (fun meth ->
          let compiled = Compile.compile c in
          let trans = Trans.build compiled in
          let r = High_density.run ~params:(hd_params meth) trans in
          Alcotest.(check bool)
            (Circuit.name c ^ " exact " ^ Approx.method_name meth)
            true r.Traversal.exact;
          Alcotest.(check (float 1e-6))
            (Circuit.name c ^ " " ^ Approx.method_name meth)
            expect r.Traversal.states)
        [ Approx.RUA; Approx.SP; Approx.HB ])
    (small_circuits ())

let test_hd_with_partial_images () =
  List.iter
    (fun c ->
      let compiled = Compile.compile c in
      let trans = Trans.build ~cluster_limit:60 compiled in
      let params =
        { High_density.default with pimg = Some (20, 10) }
      in
      let r = High_density.run ~params trans in
      Alcotest.(check bool) (Circuit.name c ^ " exact") true r.Traversal.exact;
      Alcotest.(check (float 1e-6))
        (Circuit.name c) (explicit_count c) r.Traversal.states)
    [
      Generate.traffic_light ();
      Generate.fifo_controller ~depth:5;
      Generate.microsequencer ~addr_bits:2 ~stack_depth:1;
    ]

let test_hd_thresholded () =
  let c = Generate.microsequencer ~addr_bits:2 ~stack_depth:1 in
  let expect = explicit_count c in
  List.iter
    (fun threshold ->
      let compiled = Compile.compile c in
      let trans = Trans.build compiled in
      let params = { High_density.default with threshold } in
      let r = High_density.run ~params trans in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "threshold %d" threshold)
        expect r.Traversal.states)
    [ 2; 8; 64 ]

let test_bfs_cluster_limits_agree () =
  let c = Generate.lfsr ~bits:6 in
  let expect = explicit_count c in
  List.iter
    (fun limit ->
      let compiled = Compile.compile c in
      let trans = Trans.build ~cluster_limit:limit compiled in
      let r = Bfs.run trans in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "limit %d" limit)
        expect r.Traversal.states)
    [ 1; 30; 100000 ]

let test_part_orders_agree () =
  List.iter
    (fun c ->
      let expect = explicit_count c in
      List.iter
        (fun part_order ->
          let compiled = Compile.compile c in
          let trans = Trans.build ~part_order compiled in
          let r = Bfs.run trans in
          Alcotest.(check (float 1e-6)) (Circuit.name c) expect
            r.Traversal.states)
        [ `Declaration; `Support ])
    [ Generate.lfsr ~bits:6; Generate.microsequencer ~addr_bits:3 ~stack_depth:1 ]

let test_bfs_with_sifting () =
  let c = Generate.johnson ~bits:5 in
  let compiled = Compile.compile c in
  let trans = Trans.build compiled in
  let r = Bfs.run ~sift:true trans in
  Alcotest.(check (float 1e-6)) "states" (explicit_count c) r.Traversal.states

let test_node_limit_aborts () =
  let c = Generate.shifter_datapath ~width:8 in
  let compiled = Compile.compile c in
  let trans = Trans.build compiled in
  (* an absurdly small node budget must abort the run as inexact *)
  let r = Bfs.run ~node_limit:50 trans in
  Alcotest.(check bool) "not exact" false r.Traversal.exact;
  let compiled = Compile.compile c in
  let trans = Trans.build compiled in
  let r = High_density.run ~node_limit:50 trans in
  Alcotest.(check bool) "hd not exact" false r.Traversal.exact

let test_time_limit_zero () =
  let c = Generate.counter ~bits:8 in
  let trans = Trans.build (Compile.compile c) in
  let r = Bfs.run ~time_limit:0.0 trans in
  Alcotest.(check bool) "not exact" false r.Traversal.exact;
  Alcotest.(check bool) "did not finish" true (r.Traversal.states < 256.0)

(* The limit counts wall-clock seconds, not the process CPU time that
   Sys.time sums over every domain: with one sibling domain spinning, a
   CPU-time limit stops the run after about half its budget on a two-core
   host. *)
let test_time_limit_is_wall_clock () =
  let limit = 0.4 in
  let trans = Trans.build (Compile.compile (Generate.counter ~bits:20)) in
  let stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  let r, wall =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () -> Obs.Timing.time (fun () -> Bfs.run ~time_limit:limit trans))
  in
  Alcotest.(check bool) "cut short" false r.Traversal.exact;
  Alcotest.(check bool)
    (Printf.sprintf "returned after %.2f s of a %.2f s limit" wall limit)
    true (wall >= limit)

let test_hd_c1_method () =
  (* the compound methods also work as subset extractors *)
  let c = Generate.johnson ~bits:4 in
  let trans = Trans.build (Compile.compile c) in
  let r =
    High_density.run ~params:{ High_density.default with meth = Approx.C1 }
      trans
  in
  Alcotest.(check (float 1e-6)) "states" (explicit_count c) r.Traversal.states

let test_max_iter_incomplete () =
  let c = Generate.counter ~bits:6 in
  let compiled = Compile.compile c in
  let trans = Trans.build compiled in
  let r = Bfs.run ~max_iter:3 trans in
  Alcotest.(check bool) "not exact" false r.Traversal.exact;
  Alcotest.(check bool) "partial" true (r.Traversal.states < 64.0)

let tests =
  ( "reach",
    [
      Alcotest.test_case "image of init" `Quick test_image_of_init;
      Alcotest.test_case "image = monolithic image" `Quick
        test_image_monolithic_agrees;
      Alcotest.test_case "preimage contains init" `Quick
        test_preimage_contains_init;
      Alcotest.test_case "partial image is a subset" `Quick
        test_partial_image_is_subset;
      Alcotest.test_case "quantification schedule" `Quick
        test_quantification_schedule;
      Alcotest.test_case "compile interleaves cur/next" `Quick
        test_compile_interleaves_cur_next;
      Alcotest.test_case "bfs matches explicit" `Quick
        test_bfs_matches_explicit;
      Alcotest.test_case "bfs reached set exactly" `Quick
        test_bfs_reached_set_exactly;
      Alcotest.test_case "hd matches explicit" `Slow test_hd_matches_explicit;
      Alcotest.test_case "hd with partial images" `Quick
        test_hd_with_partial_images;
      Alcotest.test_case "hd thresholded" `Quick test_hd_thresholded;
      Alcotest.test_case "bfs cluster limits agree" `Quick
        test_bfs_cluster_limits_agree;
      Alcotest.test_case "part orders agree" `Quick test_part_orders_agree;
      Alcotest.test_case "bfs with sifting" `Quick test_bfs_with_sifting;
      Alcotest.test_case "node limit aborts" `Quick test_node_limit_aborts;
      Alcotest.test_case "time limit zero" `Quick test_time_limit_zero;
      Alcotest.test_case "time limit counts wall-clock seconds" `Quick
        test_time_limit_is_wall_clock;
      Alcotest.test_case "hd with compound method" `Quick test_hd_c1_method;
      Alcotest.test_case "max_iter incomplete" `Quick test_max_iter_incomplete;
    ] )
