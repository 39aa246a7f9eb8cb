(* bddUnderApprox (UA) [Shiple et al., UCB/ERL M97/73; paper Section 2.1.3].

   The ancestor of RUA: same three-pass structure, but only replace-by-0 is
   used and the acceptance criterion is a convex combination of the node
   savings and the minterm loss instead of the density ratio.  With the
   original's complement arcs the algorithm is not safe; here the possible
   unsafety is the criterion itself, which can accept replacements that
   decrease density. *)

type params = {
  threshold : int;  (** stop once the estimated size reaches this *)
  weight : float;  (** α ∈ [0,1]: weight of node savings vs. minterm loss *)
}

let default = { threshold = 0; weight = 0.5 }

let approximate man ?(params = default) f =
  if Bdd.is_const f then f
  else
    Dense.with_view man f (fun v ->
        let size0 = float_of_int (v.count - 2) in
        let weight0 = Bdd.weight man f in
        let m = Marking.create v in
        let zeroed = Array.make v.count false in
        let est_size = ref (v.count - 2) in
        Marking.add_path m v.root 1.0;
        let rec loop () =
          if !est_size <= params.threshold then ()
          else
            let n = Dense.pop m.queue in
            if n >= 0 then begin
              let p = m.pathw.(n) in
              (* the dominated-node count for replace-by-0, as in RUA *)
              let saved = Marking.dominated m ~protect:(-1) n in
              let lost = p *. Bdd.weight man v.node.(n) in
              let gain = params.weight *. (float_of_int saved /. size0) in
              let pain = (1. -. params.weight) *. (lost /. weight0) in
              if gain > pain then begin
                zeroed.(n) <- true;
                Marking.kill m;
                est_size := !est_size - saved
              end
              else begin
                Marking.add_path m v.hi.(n) (p /. 2.);
                Marking.add_path m v.lo.(n) (p /. 2.)
              end;
              loop ()
            end
        in
        loop ();
        Dense.rebuild v ~redirect:(fun i -> if zeroed.(i) then 0 else -1))
