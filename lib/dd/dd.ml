(* Four-mode compressed decision-diagram kernel.  See dd.mli for the
   semantics of each mode and DESIGN.md §Compressed representations for
   the reduction rules and why the context-free recursion below is
   sound.

   Conventions used throughout:

   - every value is interpreted "at a context level L": the caller knows
     which levels above the value's top are implicitly skipped.  In the
     Bdd/Cbdd modes a skipped level is don't-care, in Zdd/Czdd it means
     the variable is 0.  Because that implicit prefix is a *product*
     term identical on both operands, it distributes over AND/OR/XOR and
     the apply recursion never needs the context explicitly.
   - a node covers levels [top..bot]: levels top..bot-1 are the chain
     run (forced 0 in Cbdd, don't-care in Czdd; top = bot in the plain
     modes) and the branch on level bot leads to [hi]/[lo], both of
     which live strictly below [bot]. *)

type mode = Bdd | Zdd | Cbdd | Czdd

let mode_name = function
  | Bdd -> "bdd"
  | Zdd -> "zdd"
  | Cbdd -> "cbdd"
  | Czdd -> "czdd"

let mode_of_string = function
  | "bdd" -> Some Bdd
  | "zdd" -> Some Zdd
  | "cbdd" -> Some Cbdd
  | "czdd" -> Some Czdd
  | _ -> None

let all_modes = [ Bdd; Zdd; Cbdd; Czdd ]

type t = { uid : int; node : node }
and node = Leaf of bool | Node of { top : int; bot : int; hi : t; lo : t }

let equal a b = a == b
let id u = u.uid

let view u =
  match u.node with
  | Leaf b -> `Leaf b
  | Node n -> `Node (n.top, n.bot, n.hi, n.lo)

(* effective top level: leaves sort below every variable *)
let etop u = match u.node with Leaf _ -> max_int | Node n -> n.top

(* ---------------------------------------------------------------- *)
(* Unique table: open-addressed stripes keyed (top, bot, hi, lo).
   Sequential managers use a single stripe with no locking; shared
   managers use 64 mutex-protected stripes selected by hash, so the
   chain tags take part in hash-consing under concurrency exactly as
   they do sequentially. *)

type stripe = {
  lock : Mutex.t;
  mutable slots : t array; (* dummy-filled; power-of-two length *)
  mutable count : int;
}

type centry = { ck1 : int; ck2 : int; ck3 : int; cres : t }

(* direct-mapped lossy cache; entries are immutable records written with
   a single pointer store, so concurrent readers never see a torn
   entry *)
type cache = centry option array

type man = {
  mmode : mode;
  mshared : bool;
  m_nvars : int;
  stripes : stripe array;
  smask : int; (* stripes selector mask *)
  dummy : t;
  c_ff : t;
  c_leaf1 : t;
  next_uid : int Atomic.t;
  m_nodes_made : int Atomic.t;
  m_chain_folds : int Atomic.t;
  m_chain_mk : int Atomic.t;
  mutable taut_v : t option;
  mutable op_cache : cache option; (* and/or/xor, tagged *)
  mutable ite_cache : cache option;
  mutable restrict_cache : cache option;
}

let mode m = m.mmode
let is_shared m = m.mshared
let nvars m = m.m_nvars
let ff m = m.c_ff

let n_stripes_shared = 64
let cache_bits = 16

let create ~nvars ?(shared = false) ?(mode = Bdd) () =
  if nvars < 0 then invalid_arg "Dd.create: negative nvars";
  let dummy = { uid = -1; node = Leaf false } in
  let c_ff = { uid = 0; node = Leaf false } in
  let c_leaf1 = { uid = 1; node = Leaf true } in
  let nstripes = if shared then n_stripes_shared else 1 in
  let stripes =
    Array.init nstripes (fun _ ->
        { lock = Mutex.create (); slots = Array.make 64 dummy; count = 0 })
  in
  {
    mmode = mode;
    mshared = shared;
    m_nvars = nvars;
    stripes;
    smask = nstripes - 1;
    dummy;
    c_ff;
    c_leaf1;
    next_uid = Atomic.make 2;
    m_nodes_made = Atomic.make 0;
    m_chain_folds = Atomic.make 0;
    m_chain_mk = Atomic.make 0;
    taut_v = None;
    op_cache = None;
    ite_cache = None;
    restrict_cache = None;
  }

(* 64-bit finalizer-style mixing of the four key fields *)
let mix4 a b c d =
  let h = a * 0x9e3779b1 in
  let h = (h lxor b) * 0x85ebca77 in
  let h = (h lxor c) * 0xc2b2ae3d in
  let h = (h lxor d) * 0x27d4eb2f in
  let h = h lxor (h lsr 29) in
  h land max_int

let stripe_rehash st dummy =
  let old = st.slots in
  let len = 2 * Array.length old in
  let fresh = Array.make len dummy in
  let mask = len - 1 in
  Array.iter
    (fun u ->
      if u != dummy then begin
        match u.node with
        | Leaf _ -> assert false
        | Node n ->
            let h = mix4 n.top n.bot n.hi.uid n.lo.uid in
            let i = ref (h land mask) in
            while fresh.(!i) != dummy do
              i := (!i + 1) land mask
            done;
            fresh.(!i) <- u
      end)
    old;
  st.slots <- fresh

(* find-or-insert the raw node (top, bot, hi, lo); the caller has
   already applied the mode's reduction rules *)
let node_raw man ~top ~bot ~hi ~lo =
  let h = mix4 top bot hi.uid lo.uid in
  let st = man.stripes.(h land man.smask) in
  if man.mshared then Mutex.lock st.lock;
  let slots = st.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  let found = ref man.dummy in
  (try
     while true do
       let u = slots.(!i) in
       if u == man.dummy then raise Exit;
       (match u.node with
       | Node n
         when n.top = top && n.bot = bot && n.hi == hi && n.lo == lo ->
           found := u;
           raise Exit
       | _ -> ());
       i := (!i + 1) land mask
     done
   with Exit -> ());
  let r =
    if !found != man.dummy then !found
    else begin
      let u =
        { uid = Atomic.fetch_and_add man.next_uid 1; node = Node { top; bot; hi; lo } }
      in
      slots.(!i) <- u;
      st.count <- st.count + 1;
      Atomic.incr man.m_nodes_made;
      if 3 * (st.count + 1) > 2 * (mask + 1) then stripe_rehash st man.dummy;
      u
    end
  in
  if man.mshared then Mutex.unlock st.lock;
  r

(* The canonical per-level constructor: the whole representational
   difference between the four modes lives in these few lines. *)
let mk_node man v t e =
  Atomic.incr man.m_chain_mk;
  match man.mmode with
  | Bdd -> if t == e then t else node_raw man ~top:v ~bot:v ~hi:t ~lo:e
  | Zdd -> if t == man.c_ff then e else node_raw man ~top:v ~bot:v ~hi:t ~lo:e
  | Cbdd ->
      if t == e then t
      else if t == man.c_ff then begin
        match e.node with
        | Node n when n.top = v + 1 ->
            Atomic.incr man.m_chain_folds;
            node_raw man ~top:v ~bot:n.bot ~hi:n.hi ~lo:n.lo
        | _ -> node_raw man ~top:v ~bot:v ~hi:t ~lo:e
      end
      else node_raw man ~top:v ~bot:v ~hi:t ~lo:e
  | Czdd ->
      if t == man.c_ff then e
      else if t == e then begin
        match t.node with
        | Node n when n.top = v + 1 ->
            Atomic.incr man.m_chain_folds;
            node_raw man ~top:v ~bot:n.bot ~hi:n.hi ~lo:n.lo
        | _ -> node_raw man ~top:v ~bot:v ~hi:t ~lo:e
      end
      else node_raw man ~top:v ~bot:v ~hi:t ~lo:e

let zddish man = match man.mmode with Zdd | Czdd -> true | Bdd | Cbdd -> false

(* cofactors of [u] at context level [l] (caller guarantees
   l <= etop u); chain nodes peel one level, re-hash-consing the
   remainder of the run — the remainder satisfies the same node
   invariants because they do not mention [top] *)
let cof_at man l u =
  match u.node with
  | Leaf false -> (u, u)
  | Leaf true -> if zddish man then (man.c_ff, u) else (u, u)
  | Node n ->
      if n.top > l then if zddish man then (man.c_ff, u) else (u, u)
      else if n.top = n.bot then (n.hi, n.lo)
      else begin
        let rest =
          node_raw man ~top:(l + 1) ~bot:n.bot ~hi:n.hi ~lo:n.lo
        in
        match man.mmode with
        | Cbdd -> (man.c_ff, rest)
        | Czdd -> (rest, rest)
        | Bdd | Zdd -> assert false
      end

(* ---------------------------------------------------------------- *)
(* Tautology / literal builders.  Building through every level keeps
   them mode-uniform: [mk v r r] inserts the don't-care node the
   zero-suppressed modes need and melts away in the plain modes. *)

let tt man =
  if not (zddish man) then man.c_leaf1
  else
    match man.taut_v with
    | Some u -> u
    | None ->
        let r = ref man.c_leaf1 in
        for v = man.m_nvars - 1 downto 0 do
          r := mk_node man v !r !r
        done;
        man.taut_v <- Some !r;
        !r

let cube_of_literals man lits =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= man.m_nvars then
        invalid_arg "Dd.cube_of_literals: variable out of range")
    lits;
  if
    List.exists
      (fun (v, s) -> List.exists (fun (v', s') -> v = v' && s <> s') lits)
      lits
  then man.c_ff
  else begin
    let r = ref man.c_leaf1 in
    (* in the plain modes untouched levels reduce away, so starting from
       the true leaf and walking all levels is uniform *)
    for v = man.m_nvars - 1 downto 0 do
      r :=
        (match List.assoc_opt v lits with
        | Some true -> mk_node man v !r man.c_ff
        | Some false -> mk_node man v man.c_ff !r
        | None -> mk_node man v !r !r)
    done;
    !r
  end

let ithvar man i =
  if i < 0 || i >= man.m_nvars then invalid_arg "Dd.ithvar: out of range";
  cube_of_literals man [ (i, true) ]

let nithvar man i =
  if i < 0 || i >= man.m_nvars then invalid_arg "Dd.nithvar: out of range";
  cube_of_literals man [ (i, false) ]

(* ---------------------------------------------------------------- *)
(* Op caches *)

let cache_for get set man =
  match get man with
  | Some c -> c
  | None ->
      let c = Array.make (1 lsl cache_bits) None in
      set man c;
      c

let op_cache man =
  cache_for (fun m -> m.op_cache) (fun m c -> m.op_cache <- Some c) man

let ite_cache man =
  cache_for (fun m -> m.ite_cache) (fun m c -> m.ite_cache <- Some c) man

let restrict_cache man =
  cache_for
    (fun m -> m.restrict_cache)
    (fun m c -> m.restrict_cache <- Some c)
    man

let cache_mask = (1 lsl cache_bits) - 1

let cache_find (c : cache) k1 k2 k3 =
  match c.(mix4 k1 k2 k3 0 land cache_mask) with
  | Some e when e.ck1 = k1 && e.ck2 = k2 && e.ck3 = k3 -> Some e.cres
  | _ -> None

let cache_add (c : cache) k1 k2 k3 r =
  c.(mix4 k1 k2 k3 0 land cache_mask) <-
    Some { ck1 = k1; ck2 = k2; ck3 = k3; cres = r }

(* ---------------------------------------------------------------- *)
(* Boolean operations.  [min] of the effective tops picks the recursion
   level; termination: both cofactors have strictly larger effective
   top, and every pair of leaves is handled by a terminal case. *)

let tag_and = 0
let tag_or = 1
let tag_xor = 2

let rec apply man tag f g =
  let bddish = not (zddish man) in
  let term =
    if tag = tag_and then
      if f == man.c_ff || g == man.c_ff then Some man.c_ff
      else if f == g then Some f
      else if bddish && f == man.c_leaf1 then Some g
      else if bddish && g == man.c_leaf1 then Some f
      else None
    else if tag = tag_or then
      if f == man.c_ff then Some g
      else if g == man.c_ff then Some f
      else if f == g then Some f
      else if bddish && (f == man.c_leaf1 || g == man.c_leaf1) then
        Some man.c_leaf1
      else None
    else if f == g then Some man.c_ff
    else if f == man.c_ff then Some g
    else if g == man.c_ff then Some f
    else None
  in
  match term with
  | Some r -> r
  | None ->
      let f, g = if f.uid <= g.uid then (f, g) else (g, f) in
      let c = op_cache man in
      (match cache_find c tag f.uid g.uid with
      | Some r -> r
      | None ->
          let m = min (etop f) (etop g) in
          let f1, f0 = cof_at man m f and g1, g0 = cof_at man m g in
          let r1 = apply man tag f1 g1 in
          let r0 = apply man tag f0 g0 in
          let r = mk_node man m r1 r0 in
          cache_add c tag f.uid g.uid r;
          r)

let band man f g = apply man tag_and f g
let bor man f g = apply man tag_or f g
let bxor man f g = apply man tag_xor f g
let bnot man f = bxor man (tt man) f

let rec ite man f g h =
  if f == man.c_ff then h
  else if g == h then g
  else if (not (zddish man)) && f == man.c_leaf1 then g
  else begin
    match (f.node, g.node, h.node) with
    | Leaf true, Leaf gb, Leaf _ ->
        (* zero-suppressed modes only: [f] is the all-zeros point, so the
           result is [g] there and [h] (a leaf, hence 0 away from the
           point) elsewhere *)
        if gb then man.c_leaf1 else man.c_ff
    | _ ->
        let c = ite_cache man in
        (match cache_find c f.uid g.uid h.uid with
        | Some r -> r
        | None ->
            let m = min (etop f) (min (etop g) (etop h)) in
            let f1, f0 = cof_at man m f in
            let g1, g0 = cof_at man m g in
            let h1, h0 = cof_at man m h in
            let r1 = ite man f1 g1 h1 in
            let r0 = ite man f0 g0 h0 in
            let r = mk_node man m r1 r0 in
            cache_add c f.uid g.uid h.uid r;
            r)
  end

let conj man fs = List.fold_left (band man) (tt man) fs
let disj man fs = List.fold_left (bor man) (ff man) fs

(* ---------------------------------------------------------------- *)
(* Quantification *)

let exists man ~vars f =
  let vs = Array.of_list (List.sort_uniq compare vars) in
  Array.iter
    (fun v ->
      if v < 0 || v >= man.m_nvars then
        invalid_arg "Dd.exists: variable out of range")
    vs;
  let n = Array.length vs in
  let memo : (int * int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec ex i f =
    if i >= n then f
    else
      match f.node with
      | Leaf false -> f
      | Leaf true ->
          if zddish man then begin
            (* the all-zeros suffix point with the quantified levels
               turned don't-care *)
            let r = ref man.c_leaf1 in
            for j = n - 1 downto i do
              r := mk_node man vs.(j) !r !r
            done;
            !r
          end
          else f
      | Node _ -> (
          match Hashtbl.find_opt memo (f.uid, i) with
          | Some r -> r
          | None ->
              let v = vs.(i) in
              let tf = etop f in
              let r =
                if tf > v then begin
                  let r = ex (i + 1) f in
                  (* quantifying a level the value skips: don't-care in
                     the plain modes (mk melts), an explicit DC node in
                     the zero-suppressed modes *)
                  mk_node man v r r
                end
                else if tf < v then begin
                  let f1, f0 = cof_at man tf f in
                  mk_node man tf (ex i f1) (ex i f0)
                end
                else begin
                  let f1, f0 = cof_at man v f in
                  let r = bor man (ex (i + 1) f1) (ex (i + 1) f0) in
                  mk_node man v r r
                end
              in
              Hashtbl.add memo (f.uid, i) r;
              r)
  in
  ex 0 f

let forall man ~vars f = bnot man (exists man ~vars (bnot man f))

(* value of [f] on the all-zeros suffix: every mode routes the all-zeros
   assignment through [lo] *)
let rec tail_one f = match f.node with Leaf b -> b | Node n -> tail_one n.lo

let restrict man f ~care =
  let rec go f c =
    if c == man.c_ff then f
    else
      match f.node with
      | Leaf _ -> f
      | Node _ ->
          if (not (zddish man)) && c == man.c_leaf1 then f
          else if zddish man && c == man.c_leaf1 then
            (* care set is the all-zeros point: collapse to f's value
               there *)
            if tail_one f then man.c_leaf1 else man.c_ff
          else begin
            let cc = restrict_cache man in
            match cache_find cc f.uid c.uid 0 with
            | Some r -> r
            | None ->
                let m = min (etop f) (etop c) in
                let f1, f0 = cof_at man m f in
                let c1, c0 = cof_at man m c in
                let r =
                  if c1 == man.c_ff then go f0 c0
                  else if c0 == man.c_ff then
                    if zddish man then mk_node man m (go f1 c1) man.c_ff
                    else go f1 c1
                  else mk_node man m (go f1 c1) (go f0 c0)
                in
                cache_add cc f.uid c.uid 0 r;
                r
          end
  in
  go f care

(* ---------------------------------------------------------------- *)
(* Evaluation and counting *)

let eval man f asg =
  let n = man.m_nvars in
  let zero_run lo hi =
    (* true iff no variable in [lo, hi) is assigned 1 *)
    let ok = ref true in
    for i = lo to hi - 1 do
      if asg i then ok := false
    done;
    !ok
  in
  let rec go l u =
    match u.node with
    | Leaf false -> false
    | Leaf true -> if zddish man then zero_run l n else true
    | Node nd ->
        let pref_ok = if zddish man then zero_run l nd.top else true in
        if not pref_ok then false
        else begin
          let run_ok =
            match man.mmode with
            | Cbdd -> zero_run nd.top nd.bot
            | Czdd | Bdd | Zdd -> true
          in
          if not run_ok then false
          else if asg nd.bot then go (nd.bot + 1) nd.hi
          else go (nd.bot + 1) nd.lo
        end
  in
  go 0 f

let count_minterms man f ~nvars =
  let n = man.m_nvars in
  let zs = zddish man in
  let memo : (int, float) Hashtbl.t = Hashtbl.create 64 in
  (* cnt u = #sat of u interpreted at its own top, over levels
     [top u, n); ext u l rescales to context level l *)
  let rec ext u l =
    match u.node with
    | Leaf false -> 0.0
    | Leaf true -> if zs then 1.0 else Float.pow 2.0 (float_of_int (n - l))
    | Node nd ->
        let c = cnt u in
        if zs then c else c *. Float.pow 2.0 (float_of_int (nd.top - l))
  and cnt u =
    match u.node with
    | Leaf _ -> assert false
    | Node nd -> (
        match Hashtbl.find_opt memo u.uid with
        | Some c -> c
        | None ->
            let sub = ext nd.hi (nd.bot + 1) +. ext nd.lo (nd.bot + 1) in
            let c =
              match man.mmode with
              | Czdd -> Float.pow 2.0 (float_of_int (nd.bot - nd.top)) *. sub
              | Cbdd | Bdd | Zdd -> sub
            in
            Hashtbl.add memo u.uid c;
            c)
  in
  let base = ext f 0 in
  if nvars <= n then base else base *. Float.pow 2.0 (float_of_int (nvars - n))

let size u =
  let seen = Hashtbl.create 64 in
  let rec go u =
    if not (Hashtbl.mem seen u.uid) then begin
      Hashtbl.add seen u.uid ();
      match u.node with
      | Leaf _ -> ()
      | Node n ->
          go n.hi;
          go n.lo
    end
  in
  go u;
  Hashtbl.length seen

(* ---------------------------------------------------------------- *)
(* Conversions: walk levels 0..nvars with the source's cofactors and
   rebuild with the destination's mk, memoized on (level, uid) — the
   level is part of the key because in the zero-suppressed modes the
   same node denotes different functions at different contexts. *)

let of_bdd man bman f =
  let n = man.m_nvars in
  if Bdd.nvars bman > n then
    invalid_arg "Dd.of_bdd: source manager has more variables";
  let memo : (int * int, t) Hashtbl.t = Hashtbl.create 256 in
  let level_of g =
    if Bdd.is_const g then max_int else Bdd.level_of_var bman (Bdd.topvar g)
  in
  let rec go l g =
    if l >= n then
      if Bdd.is_true g then man.c_leaf1
      else begin
        assert (Bdd.is_false g);
        man.c_ff
      end
    else
      match Hashtbl.find_opt memo (l, Bdd.id g) with
      | Some u -> u
      | None ->
          let lg = level_of g in
          assert (lg >= l);
          let u =
            if lg > l then begin
              let d = go (l + 1) g in
              mk_node man l d d
            end
            else mk_node man l (go (l + 1) (Bdd.high g)) (go (l + 1) (Bdd.low g))
          in
          Hashtbl.add memo (l, Bdd.id g) u;
          u
  in
  go 0 f

let to_bdd man bman u =
  let n = man.m_nvars in
  while Bdd.nvars bman < n do
    ignore (Bdd.new_var bman)
  done;
  let memo : (int * int, Bdd.t) Hashtbl.t = Hashtbl.create 256 in
  let rec go l u =
    if l >= n then
      match u.node with
      | Leaf true -> Bdd.tt bman
      | Leaf false -> Bdd.ff bman
      | Node _ -> assert false
    else
      match Hashtbl.find_opt memo (l, u.uid) with
      | Some g -> g
      | None ->
          let u1, u0 = cof_at man l u in
          let g =
            if u1 == u0 then go (l + 1) u1
            else begin
              let h = go (l + 1) u1 and lo = go (l + 1) u0 in
              let v = Bdd.var_at_level bman l in
              Bdd.ite bman (Bdd.ithvar bman v) h lo
            end
          in
          Hashtbl.add memo (l, u.uid) g;
          g
  in
  go 0 u

let convert ~src ~dst u =
  if src == dst then u
  else begin
    if src.m_nvars <> dst.m_nvars then
      invalid_arg "Dd.convert: managers disagree on nvars";
    let n = src.m_nvars in
    let memo : (int * int, t) Hashtbl.t = Hashtbl.create 256 in
    let rec go l u =
      if l >= n then
        match u.node with
        | Leaf true -> dst.c_leaf1
        | Leaf false -> dst.c_ff
        | Node _ -> assert false
      else
        match Hashtbl.find_opt memo (l, u.uid) with
        | Some d -> d
        | None ->
            let u1, u0 = cof_at src l u in
            let d =
              if u1 == u0 then begin
                let d = go (l + 1) u1 in
                mk_node dst l d d
              end
              else mk_node dst l (go (l + 1) u1) (go (l + 1) u0)
            in
            Hashtbl.add memo (l, u.uid) d;
            d
    in
    go 0 u
  end

(* ---------------------------------------------------------------- *)
(* Stats *)

let chain_counters man =
  (Atomic.get man.m_chain_folds, Atomic.get man.m_chain_mk)

let nodes_made man = Atomic.get man.m_nodes_made

let unique_size man =
  Array.fold_left (fun acc st -> acc + st.count) 0 man.stripes

let stats man =
  let folds, mk = chain_counters man in
  [
    ("nodes_made", nodes_made man);
    ("unique_size", unique_size man);
    ("chain_folds", folds);
    ("chain_mk", mk);
  ]

(* ---------------------------------------------------------------- *)
(* Serialization *)

type serialized = {
  d_mode : mode;
  d_nvars : int;
  d_nodes : (int * int * int * int) array;
  d_roots : int array;
}

exception Corrupt of string

let magic = "DDC1"

let mode_byte = function Bdd -> 0 | Zdd -> 1 | Cbdd -> 2 | Czdd -> 3

let mode_of_byte = function
  | 0 -> Bdd
  | 1 -> Zdd
  | 2 -> Cbdd
  | 3 -> Czdd
  | b -> raise (Corrupt (Printf.sprintf "unknown mode byte %d" b))

let export_list man roots =
  let index : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let nodes = ref [] in
  let count = ref 0 in
  let rec visit u =
    match u.node with
    | Leaf false -> 0
    | Leaf true -> 1
    | Node n -> (
        match Hashtbl.find_opt index u.uid with
        | Some i -> i
        | None ->
            let hi = visit n.hi in
            let lo = visit n.lo in
            let i = !count + 2 in
            incr count;
            Hashtbl.add index u.uid i;
            nodes := (n.top, n.bot, hi, lo) :: !nodes;
            i)
  in
  let roots = Array.of_list (List.map visit roots) in
  {
    d_mode = man.mmode;
    d_nvars = man.m_nvars;
    d_nodes = Array.of_list (List.rev !nodes);
    d_roots = roots;
  }

let export man root = export_list man [ root ]

(* semantic rebuild: expand the (top,bot) run back through mk so any
   frame — including a hand-edited one — lands on the canonical value or
   dies with Corrupt *)
let import_same man s =
  if s.d_nvars < 0 || s.d_nvars > man.m_nvars then
    raise
      (Corrupt
         (Printf.sprintf "frame has %d variables, manager has %d" s.d_nvars
            man.m_nvars));
  let nn = Array.length s.d_nodes in
  let built = Array.make nn man.c_ff in
  let resolve i r =
    if r = 0 then man.c_ff
    else if r = 1 then man.c_leaf1
    else if r - 2 < i then built.(r - 2)
    else raise (Corrupt (Printf.sprintf "node %d: forward reference %d" i r))
  in
  Array.iteri
    (fun i (top, bot, hi, lo) ->
      if top < 0 || top > bot || bot >= s.d_nvars then
        raise (Corrupt (Printf.sprintf "node %d: bad level range %d..%d" i top bot));
      (match man.mmode with
      | Bdd | Zdd ->
          if top <> bot then
            raise
              (Corrupt
                 (Printf.sprintf "node %d: chain tag %d..%d in %s mode" i top
                    bot (mode_name man.mmode)))
      | Cbdd | Czdd -> ());
      let hi = resolve i hi and lo = resolve i lo in
      if etop hi <= bot || etop lo <= bot then
        raise (Corrupt (Printf.sprintf "node %d: child above level %d" i bot));
      let u = ref (mk_node man bot hi lo) in
      for v = bot - 1 downto top do
        u :=
          (match man.mmode with
          | Cbdd | Bdd -> mk_node man v man.c_ff !u
          | Czdd | Zdd -> mk_node man v !u !u)
      done;
      built.(i) <- !u)
    s.d_nodes;
  Array.to_list
    (Array.map
       (fun r ->
         if r = 0 then man.c_ff
         else if r = 1 then man.c_leaf1
         else if r - 2 < nn then built.(r - 2)
         else raise (Corrupt (Printf.sprintf "root reference %d out of range" r)))
       s.d_roots)

let import_list man s =
  if s.d_mode = man.mmode then import_same man s
  else begin
    (* route through a scratch manager of the frame's own mode, then
       convert semantically *)
    if s.d_nvars <> man.m_nvars then
      raise
        (Corrupt
           (Printf.sprintf "frame has %d variables, manager has %d" s.d_nvars
              man.m_nvars));
    let tmp = create ~nvars:s.d_nvars ~mode:s.d_mode () in
    List.map (fun u -> convert ~src:tmp ~dst:man u) (import_same tmp s)
  end

let import man s =
  match import_list man s with
  | [ u ] -> u
  | l -> raise (Corrupt (Printf.sprintf "expected 1 root, frame has %d" (List.length l)))

let serialized_to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Codec.add_varint buf (mode_byte s.d_mode);
  Codec.add_varint buf s.d_nvars;
  Codec.add_varint buf (Array.length s.d_nodes);
  Array.iter
    (fun (top, bot, hi, lo) ->
      Codec.add_varint buf top;
      Codec.add_varint buf bot;
      Codec.add_varint buf hi;
      Codec.add_varint buf lo)
    s.d_nodes;
  Codec.add_varint buf (Array.length s.d_roots);
  Array.iter (Codec.add_varint buf) s.d_roots;
  Buffer.contents buf

let serialized_of_string str =
  if String.length str < 4 || String.sub str 0 4 <> magic then
    raise (Corrupt "bad magic (want DDC1)");
  let r = Codec.reader ~pos:4 str ~fail:(fun m -> Corrupt m) in
  let d_mode = mode_of_byte (Codec.varint r) in
  let d_nvars = Codec.varint r in
  if d_nvars > 1 lsl 24 then raise (Corrupt "implausible variable count");
  (* a node record is four varints, so at least four bytes *)
  let d_nodes =
    Array.init (Codec.count r ~min_bytes:4) (fun _ ->
        let top = Codec.varint r in
        let bot = Codec.varint r in
        let hi = Codec.varint r in
        let lo = Codec.varint r in
        (top, bot, hi, lo))
  in
  let d_roots =
    Array.init (Codec.count r ~min_bytes:1) (fun _ -> Codec.varint r)
  in
  Codec.finish r;
  { d_mode; d_nvars; d_nodes; d_roots }

let read_string man str =
  if String.length str >= 4 && String.sub str 0 4 = magic then
    import_list man (serialized_of_string str)
  else begin
    (* legacy plain-BDD frame: decode with the BDD1 codec, materialize
       in a scratch Bdd manager, then convert semantically *)
    let bs =
      try Bdd.serialized_of_string str
      with Bdd.Corrupt m -> raise (Corrupt ("legacy frame: " ^ m))
    in
    let bman = Bdd.create ~nvars:(max 1 man.m_nvars) () in
    let roots =
      try Bdd.import_list bman bs
      with Bdd.Corrupt m -> raise (Corrupt ("legacy frame: " ^ m))
    in
    List.map (fun g -> of_bdd man bman g) roots
  end

let save path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (serialized_to_string s))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      serialized_of_string (really_input_string ic n))
