(* Short-path subsetting (SP) [Ravi–Somenzi, ICCAD'95; paper Section 2].

   Short paths to the constant 1 correspond to large implicants represented
   with few nodes.  The first pass labels every node with the length of the
   shortest root-to-1 path through it; the second keeps the nodes whose
   label does not exceed the [threshold]-th smallest label, redirecting
   arcs into discarded nodes to the constant 0.  Ties at the bound all
   stay, so the threshold is a soft limit (see the mli). *)

let infinity_len = max_int / 4

let approximate man ~threshold f =
  if Bdd.is_const f then f
  else
    Dense.with_view man f (fun v ->
        let n = v.count in
        if n - 2 <= threshold then f
        else begin
          (* indices run children first; downwards is parents first *)
          let dist_root = Array.make n infinity_len in
          dist_root.(v.root) <- 0;
          for i = n - 1 downto 2 do
            let d = dist_root.(i) + 1 in
            let relax c =
              if c >= 2 && d < dist_root.(c) then dist_root.(c) <- d
            in
            relax v.hi.(i);
            relax v.lo.(i)
          done;
          let dist_one = Array.make n infinity_len in
          dist_one.(1) <- 0;
          for i = 2 to n - 1 do
            dist_one.(i) <- 1 + Int.min dist_one.(v.hi.(i)) dist_one.(v.lo.(i))
          done;
          let splen i = dist_root.(i) + dist_one.(i) in
          (* the [threshold]-th shortest label, or the shortest *)
          let sorted = Array.init (n - 2) (fun k -> splen (k + 2)) in
          Array.sort compare sorted;
          let bound = sorted.(Int.max 0 (Int.min threshold (n - 2) - 1)) in
          Dense.rebuild v ~redirect:(fun i ->
              if splen i <= bound then -1 else 0)
        end)
