(* Shared result record and maintenance hooks for the traversal engines. *)

type result = {
  reached : Bdd.t;  (* over present-state variables *)
  states : float;  (* number of reachable states *)
  iterations : int;
  images : int;  (* image computations performed *)
  peak_live_nodes : int;  (* high-water mark of the unique table *)
  peak_product : int;  (* largest intermediate image product *)
  partial_approximations : int;  (* times a product was subsetted *)
  cpu_seconds : float;
  exact : bool;  (* the full fixpoint was provably reached *)
  degrade : Resil.Degrade.cert;  (* Exact, or what was given up *)
}

let pp fmt r =
  Format.fprintf fmt
    "states=%.6g iters=%d images=%d peak=%d product=%d papprox=%d time=%.2fs%s"
    r.states r.iterations r.images r.peak_live_nodes r.peak_product
    r.partial_approximations r.cpu_seconds
    (if r.exact then "" else " (INCOMPLETE)");
  (* exact runs print exactly what they always did; only a run that
     actually degraded says so *)
  match r.degrade with
  | Resil.Degrade.Degraded i when i.steps_approximated > 0 || i.exhausted ->
      Format.fprintf fmt " %a" Resil.Degrade.pp_cert r.degrade
  | _ -> ()

(* Maintenance: collect garbage when the table grows too large, and
   optionally re-sift the variable order.  Returns the (possibly rebuilt)
   traversal roots; the caller must unpack them in order. *)
type maintenance = {
  mutable gc_at : int;
  mutable sift_at : int;
  sift_enabled : bool;
}

let make_maintenance ?(gc_start = 200_000) ?(sift_start = 50_000) sift_enabled
    =
  { gc_at = gc_start; sift_at = sift_start; sift_enabled }

let maintain m man roots =
  let roots = ref roots in
  if m.sift_enabled && Bdd.shared_size !roots > m.sift_at then begin
    roots := Reorder.sift man ~max_vars:10 !roots;
    m.sift_at <- 2 * Bdd.shared_size !roots + m.sift_at
  end;
  if Bdd.unique_size man > m.gc_at then begin
    Resil.Degrade.collect man !roots;
    m.gc_at <- max m.gc_at (2 * Bdd.unique_size man)
  end;
  !roots

(* Crash-safe checkpoint plumbing shared by the engines. *)

let checkpoint policy man ~iterations ~images ~reached ~frontier =
  match policy with
  | Some { Resil.Checkpoint.path; every }
    when every > 0 && iterations > 0 && iterations mod every = 0 ->
      Obs.Trace.with_span "resil.checkpoint" @@ fun () ->
      Resil.Checkpoint.save_reach path
        {
          Resil.Checkpoint.iterations;
          images;
          payload = Bdd.export_list man [ reached; frontier ];
        }
  | _ -> ()

let resume man = function
  | None -> None
  | Some st -> (
      match Bdd.import_list man st.Resil.Checkpoint.payload with
      | [ r; f ] -> Some (st.Resil.Checkpoint.iterations, st.images, r, f)
      | _ -> assert false (* load_reach enforces exactly 2 roots *))
