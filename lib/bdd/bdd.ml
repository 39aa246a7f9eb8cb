(* One block per node (DESIGN.md §Kernel): an internal node holds its
   variable and both children; a leaf ([ff], [tt], and the [nil]
   sentinels) has [var = -1] and children that point back at itself, so
   a field read is memory-safe on any node.  Compare nodes with [==]
   ({!equal}): polymorphic equality would walk a leaf's self-loop. *)
type t = { uid : int; var : int; hi : t; lo : t }

type view =
  | False
  | True
  | Node of { var : int; hi : t; lo : t }

exception Node_limit

(* Instrumentation events (see the mli).  All fire on rare maintenance
   paths — growth, resize, collection, limits, or one progress beat every
   few hundred fresh nodes — never per probe, so an installed observer
   costs nothing measurable and an absent one is a single branch. *)
type event =
  | Unique_grow of { capacity : int; live : int }
  | Cache_resize of { cache : string; capacity : int }
  | Gc of { collected : int; live : int }
  | Limit_hit of { limit : int }
  | Progress of { nodes_made : int; unique_size : int }

(* ------------------------------------------------------------------ *)
(* Packed hash tables (DESIGN.md §Kernel)                             *)
(* ------------------------------------------------------------------ *)

(* Every table on the hot path is open-addressed over parallel unboxed
   [int array]s keyed by node uids, in the style of CUDD's unique and
   computed tables: a probe mixes three machine ints, compares three
   machine ints, and allocates nothing.  The polymorphic [Hashtbl]s they
   replace boxed a fresh tuple key per probe and ran generic structural
   hashing on it — measured at ~6 minor-heap words per probe by
   bench/micro.exe, against 0 for these tables. *)

(* Multiplicative mixing hash over three unboxed ints (Murmur-style
   finalizer; constants fit OCaml's 63-bit int).  Callers mask the result
   to index a power-of-two table, which keeps it non-negative. *)
let[@inline] mix3 a b c =
  let h = a lxor (b * 0x9e3779b1) lxor (c * 0x85ebca77) in
  let h = (h lxor (h lsr 16)) * 0xc2b2ae35 in
  h lxor (h lsr 13)

(* --- unique table: (var, hi.uid, lo.uid) -> node, exact ------------- *)

(* The table is split into independent stripes, each a power-of-two
   open-addressed array of node pointers with its own lock.  Probes are
   lock-free on every path: they snapshot the stripe's array pointer once
   and scan without synchronization.  Inserts in a shared manager take
   the stripe lock and re-probe the current array before publishing
   (publish-then-resolve: losing a race to another domain costs one
   counted re-probe, never a duplicate node), so canonicity — one
   physical node per (var, hi, lo) — survives any interleaving.  A
   private manager has a single stripe and never touches the lock.

   Why node pointers instead of the packed parallel [int array]s this
   table used before: a slot must be publishable in one atomic step for
   concurrent readers.  A word-sized pointer store is such a step under
   the OCaml 5 memory model — plain racy reads return some
   previously-written value, never a torn one, and initialization safety
   guarantees the immutable record behind the pointer is fully visible.
   Four separate int stores are not.  The price is one dereference per
   occupied slot a probe visits. *)

type stripe = {
  st_lock : Mutex.t;
  mutable st_node : t array; (* slots; the manager's nil marks empty *)
  mutable st_count : int; (* occupied slots; written under the lock *)
}

type utable = {
  u_stripes : stripe array; (* length is a power of two *)
  u_shift : int; (* log2 (length u_stripes): hash bits spent on striping *)
}

let ut_init_cap = 8192 (* initial capacity, summed across stripes *)
let ut_shared_stripes = 64

let rec ilog2 n = if n <= 1 then 0 else 1 + ilog2 (n lsr 1)

let stripe_make fill cap =
  { st_lock = Mutex.create (); st_node = Array.make cap fill; st_count = 0 }

let ut_stripe_cap nstripes = max 64 (ut_init_cap / nstripes)

let ut_make fill nstripes =
  {
    u_stripes =
      Array.init nstripes (fun _ -> stripe_make fill (ut_stripe_cap nstripes));
    u_shift = ilog2 nstripes;
  }

(* Linear scan of one stripe snapshot: the index holding (var, hi, lo),
   or [lnot i] for the first free slot [i] of its chain.  Tail recursion,
   no allocation; the unsafe reads are in bounds because every index is
   masked.  Children compare by pointer, which hash-consing makes the
   same as comparing uids, without loading either child.  Callers pass
   an array read once from [st_node] — scanning a snapshot is what makes
   the probe safe against a concurrent grow. *)
let rec ut_scan arr mask var hi lo i =
  let n = Array.unsafe_get arr i in
  if n.uid < 0 then lnot i
  else if n.var = var && n.hi == hi && n.lo == lo then i
  else ut_scan arr mask var hi lo ((i + 1) land mask)

(* Quiescent placement of an internal node into a stripe array known to
   have room and to lack the node: rehashing on grow, gc rebuild. *)
let place_node shift arr node =
  let mask = Array.length arr - 1 in
  let rec go i =
    if (Array.unsafe_get arr i).uid < 0 then Array.unsafe_set arr i node
    else go ((i + 1) land mask)
  in
  go ((mix3 node.var node.hi.uid node.lo.uid lsr shift) land mask)

(* Double one stripe (amortized, at 2/3 load).  Runs under the stripe
   lock in a shared manager; racing probes keep scanning their old
   snapshot, and any miss they report is re-checked under the lock, so
   the swap is invisible to correctness. *)
let stripe_grow fill shift st =
  let old = st.st_node in
  let arr = Array.make (2 * Array.length old) fill in
  Array.iter (fun n -> if n.uid >= 0 then place_node shift arr n) old;
  st.st_node <- arr

let ut_capacity u =
  Array.fold_left (fun acc st -> acc + Array.length st.st_node) 0 u.u_stripes

(* Quiescent only (reorder): no concurrent operation may be running. *)
let ut_reset fill u =
  let cap = ut_stripe_cap (Array.length u.u_stripes) in
  Array.iter
    (fun st ->
      st.st_node <- Array.make cap fill;
      st.st_count <- 0)
    u.u_stripes

let ut_iter fn u =
  Array.iter
    (fun st -> Array.iter (fun n -> if n.uid >= 0 then fn n) st.st_node)
    u.u_stripes

(* --- computed tables: lossy, direct-mapped, one writer each ------- *)

(* One slot per hash; a colliding insert overwrites (CUDD's computed
   table).  Loses results, never correctness: a lost entry is recomputed.

   A node table keeps its keys in one [int array], three ints per slot
   (uids and operation tags; unused positions hold 0, and an empty slot
   has q1 = -1, which no real key matches), and its results in a
   [t array]; the weight table keeps one key per slot beside an unboxed
   [float array].  An insert overwrites the slot in place and allocates
   nothing.  A probe returns the manager's [nil] sentinel (uid -1, never
   escapes the module) on a node-table miss and nan on a weight-table
   miss (no stored weight is nan: weights lie in [0, 1]), so the hit
   path allocates no option.

   A table is a snapshot: [keys] and [vals] are installed together by one
   pointer store (growth, a wipe from another domain), so a probe that
   reads both from one snapshot can never index one array with the
   other's length.  Every table has exactly one writer domain (see
   [tables] below). *)

type 'v table = {
  keys : int array; (* stride ints per slot *)
  vals : 'v array; (* results; empty slots hold the empty value *)
  mutable filled : int; (* occupied slots *)
  mutable stores : int; (* inserts since creation: drives growth *)
}

(* Every table starts at 1,024 slots: 32 KB for a node table. *)
let table_init_cap = 1024

let table_make stride cap empty =
  {
    keys = Array.make (stride * cap) (-1);
    vals = Array.make cap empty;
    filled = 0;
    stores = 0;
  }

(* Refilling the results too means a cleared table pins no dead node. *)
let table_clear c empty =
  Array.fill c.keys 0 (Array.length c.keys) (-1);
  Array.fill c.vals 0 (Array.length c.vals) empty;
  c.filled <- 0;
  c.stores <- 0

(* A table set: the eight node tables, by operation, and the weight
   table, with the probe counters of all nine. *)
type tables = {
  tabs : t table array;
  mutable weights : float table;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable overwrites : int; (* inserts into occupied slots *)
  mutable races : int; (* overwrites that re-stored the very same key *)
}

let tab_ite = 0 (* (f, g, h) *)
let tab_op = 1 (* (tag, f, g) *)
let tab_not = 2 (* (f, 0, 0), kept in both directions *)
let tab_exist = 3 (* (f, cube, 0) *)
let tab_andex = 4 (* (f, g, cube) *)
let tab_constrain = 5 (* (f, c, 0) *)
let tab_restrict = 6 (* (f, c, 0) *)
let tab_leq = 7 (* (f, g, 0) -> tt/ff *)

let tab_names =
  [| "ite"; "op"; "not"; "exist"; "andex"; "constrain"; "restrict"; "leq" |]

let tables_make tabs =
  {
    tabs;
    weights = table_make 1 table_init_cap 0.;
    hits = 0;
    misses = 0;
    inserts = 0;
    overwrites = 0;
    races = 0;
  }

let node_tables nil =
  tables_make (Array.map (fun _ -> table_make 3 table_init_cap nil) tab_names)

(* The unused entries of a shared manager's set array. *)
let vacant = tables_make [||]

(* --- domain slots ------------------------------------------------- *)

(* A shared manager keeps one table set per domain that uses it, indexed
   by the domain's slot: a small int that no two live domains hold at
   once.  A domain takes a slot on its first use of a shared manager and
   returns it when it exits, so slots stay below the largest number of
   such domains alive at one time, and a set whose domain has exited
   passes to the next domain that takes its slot.  Domain ids would not
   do: they only grow, so two live domains can meet modulo any table
   size and would then write one set.  Systhreads of one domain share
   its slot; they cannot interleave inside a probe or an insert, which
   has no poll point between a slot's keys and its result. *)
let slot_lock = Mutex.create ()
let slot_free = ref [] (* returned slots, under [slot_lock] *)
let slot_next = ref 0
let slot_key = Domain.DLS.new_key (fun () -> -1)

let domain_slot () =
  let s = Domain.DLS.get slot_key in
  if s >= 0 then s
  else begin
    let s =
      Mutex.protect slot_lock (fun () ->
          match !slot_free with
          | s :: rest ->
              slot_free := rest;
              s
          | [] ->
              incr slot_next;
              !slot_next - 1)
    in
    Domain.DLS.set slot_key s;
    Domain.at_exit (fun () ->
        Mutex.protect slot_lock (fun () -> slot_free := s :: !slot_free));
    s
  end

(* --- scratch tables: per-call maps keyed by node uid --------------- *)

(* A traversal that visits each node of a BDD once, or memoizes a result
   per node, needs a map keyed by node uid for the length of one call.  A
   fresh [Hashtbl] per call would allocate a bucket cell per node, most of
   it promoted to the major heap before the call ends (DESIGN.md §Kernel,
   "Scratch tables"), so each call leases a scratch table instead:

   - open addressing over one [int array], two ints per slot: the uid,
     and the stamp and index packed as [stamp lsl 32 lor index]; a slot
     is occupied when its stamp equals the table's generation, so
     bumping the generation empties the table in O(1);
   - an entry's index counts the entries added before it, so payloads
     live in dense arrays by index, which growth never moves;
   - a returned table pins no node: keys are ints, and node payloads are
     overwritten with a sentinel when the lease ends;
   - each domain pools its returned tables in a lock-free stack, so no
     table is leased twice at once — not by two domains, not by two
     systhreads sharing a domain — and a nested traversal leases its
     own;
   - a table grown past [scratch_keep_slots] by one huge traversal is
     dropped rather than pooled, so the pool holds a few MB at most. *)

type scratch = {
  mutable cells : int array; (* uid, stamp lsl 32 lor index, per slot *)
  mutable mask : int; (* slots - 1; slots is a power of two *)
  mutable shift : int; (* 63 - log2 slots: hash bits come from the top *)
  mutable gen : int; (* stamp of occupied slots, in [1, scratch_max_gen] *)
  mutable count : int; (* entries *)
  mutable floats : float array; (* payloads by index, grown on demand *)
  mutable nodes : t array;
}

let rec scratch_nil =
  { uid = -1; var = -1; hi = scratch_nil; lo = scratch_nil }
let scratch_init_bits = 6
let scratch_keep_slots = 1 lsl 17
let scratch_pool_max = 8
let scratch_max_gen = (1 lsl 30) - 1
let scratch_index_mask = (1 lsl 32) - 1

let scratch_make () =
  {
    cells = Array.make (2 lsl scratch_init_bits) 0;
    mask = (1 lsl scratch_init_bits) - 1;
    shift = 63 - scratch_init_bits;
    gen = 0;
    count = 0;
    floats = [||];
    nodes = [||];
  }

(* Fibonacci hashing: the top bits of the uid times an odd constant. *)
let[@inline] scratch_home s uid = (uid * 0x1e3779b97f4a7c15) lsr s.shift

(* The slot holding [uid], or [lnot i] for the first free slot [i] of its
   chain; no allocation. *)
let rec scratch_probe cells mask gen uid i =
  if Array.unsafe_get cells ((2 * i) + 1) lsr 32 <> gen then lnot i
  else if Array.unsafe_get cells (2 * i) = uid then i
  else scratch_probe cells mask gen uid ((i + 1) land mask)

let scratch_place s i uid k =
  Array.unsafe_set s.cells (2 * i) uid;
  Array.unsafe_set s.cells ((2 * i) + 1) ((s.gen lsl 32) lor k)

let[@inline] scratch_index s i =
  Array.unsafe_get s.cells ((2 * i) + 1) land scratch_index_mask

(* Double at half load. *)
let scratch_grow s =
  let old = s.cells in
  s.cells <- Array.make (2 * Array.length old) 0;
  s.mask <- (2 * s.mask) + 1;
  s.shift <- s.shift - 1;
  for i = 0 to (Array.length old / 2) - 1 do
    let w = Array.unsafe_get old ((2 * i) + 1) in
    if w lsr 32 = s.gen then begin
      let uid = Array.unsafe_get old (2 * i) in
      let j = scratch_probe s.cells s.mask s.gen uid (scratch_home s uid) in
      scratch_place s (lnot j) uid (w land scratch_index_mask)
    end
  done

(* The index of [f], or -1. *)
let scratch_find s f =
  let i = scratch_probe s.cells s.mask s.gen f.uid (scratch_home s f.uid) in
  if i < 0 then -1 else scratch_index s i

(* The index of [f], adding it if absent. *)
let scratch_add s f =
  if 2 * (s.count + 1) > s.mask + 1 then scratch_grow s;
  let i = scratch_probe s.cells s.mask s.gen f.uid (scratch_home s f.uid) in
  if i >= 0 then scratch_index s i
  else begin
    let k = s.count in
    scratch_place s (lnot i) f.uid k;
    s.count <- k + 1;
    k
  end

(* Add [f]; true if it was absent. *)
let scratch_mark s f =
  let c = s.count in
  ignore (scratch_add s f);
  s.count > c

let rec scratch_mark_all s f =
  if f.var >= 0 && scratch_mark s f then begin
    scratch_mark_all s f.hi;
    scratch_mark_all s f.lo
  end

let scratch_extend a k fill =
  let b = Array.make (max 64 (2 * (k + 1))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let scratch_node s k = s.nodes.(k)

let scratch_set_node s k n =
  if k >= Array.length s.nodes then
    s.nodes <- scratch_extend s.nodes k scratch_nil;
  s.nodes.(k) <- n

let scratch_float s k = s.floats.(k)

let scratch_set_float s k x =
  if k >= Array.length s.floats then s.floats <- scratch_extend s.floats k 0.;
  s.floats.(k) <- x

let scratch_pool : scratch list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let rec scratch_take pool =
  match Atomic.get pool with
  | [] -> scratch_make ()
  | s :: rest as l ->
      if Atomic.compare_and_set pool l rest then s else scratch_take pool

let rec scratch_give pool s =
  let l = Atomic.get pool in
  if
    List.compare_length_with l scratch_pool_max < 0
    && not (Atomic.compare_and_set pool l (s :: l))
  then scratch_give pool s

let scratch_release pool s =
  Array.fill s.nodes 0 (Int.min s.count (Array.length s.nodes)) scratch_nil;
  if s.mask < scratch_keep_slots then scratch_give pool s

(* Lease an empty table for the length of [fn], returning it on every
   exit. *)
let with_scratch fn =
  let pool = Domain.DLS.get scratch_pool in
  let s = scratch_take pool in
  if s.gen = scratch_max_gen then begin
    (* a billion leases: wipe the stale stamps once *)
    Array.fill s.cells 0 (Array.length s.cells) 0;
    s.gen <- 0
  end;
  s.gen <- s.gen + 1;
  s.count <- 0;
  match fn s with
  | r ->
      scratch_release pool s;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      scratch_release pool s;
      Printexc.raise_with_backtrace e bt

type man = {
  ff : t;
  tt : t;
  nil : t; (* cache-miss sentinel: uid -1, never escapes this module *)
  shared : bool; (* created ~shared:true — locks armed, multi-domain safe *)
  mutable node_limit : int option;
  mutable cache_limit : int;
  mutable cache_cap : int; (* largest power of two <= cache_limit *)
  unique : utable;
  var_lock : Mutex.t; (* serializes grow_vars in shared mode *)
  cache_lock : Mutex.t; (* serializes table-set registration *)
  mutable var_level : int array; (* variable -> level *)
  mutable level_var : int array; (* level -> variable *)
  mutable n_vars : int;
  mutable sets : tables array;
      (* a private manager's one table set; a shared one's sets by domain
         slot, [vacant] where no domain has registered *)
  (* Node counters.  A private manager, which one domain uses at a time,
     keeps them in plain fields, and its one stripe counts the live
     nodes; a shared manager keeps them in the atomics. *)
  mutable next_uid : int;
  mutable nodes_made : int;
  mutable peak_unique : int;
  a_next_uid : int Atomic.t;
  a_live : int Atomic.t;
  a_nodes_made : int Atomic.t;
  a_peak_unique : int Atomic.t;
  ut_grows : int Atomic.t; (* stripe doublings *)
  ut_locks : int Atomic.t; (* stripe-lock acquisitions on the insert path *)
  stripe_waits : int Atomic.t; (* acquisitions that found the lock held *)
  cas_retries : int Atomic.t;
      (* publish races lost: the re-probe under the stripe lock found the
         node another domain created between our probe and the lock *)
  node_limit_hits : int Atomic.t;
  mutable gc_runs : int;
  mutable gc_collected : int;
  mutable observer : (event -> unit) option;
  mutable tick : (unit -> unit) option;
  mutable tick_countdown : int;
  mutable fault : (unit -> unit) option;
  mutable store_stats : (unit -> int * int * int) option;
      (* (hot, cold, spilled bytes) supplied by a tiered store (lib/store);
         None when no store is attached, in which case {!stats} reports 0 *)
  mutable table_cap : int option; (* requested hard unique-table ceiling *)
  mutable stripe_cap : int; (* per-stripe slot ceiling derived from it *)
  ut_full_hits : int Atomic.t; (* inserts refused at the ceiling *)
  mutable chain_stats : (unit -> int * int) option;
      (* (chain folds, chain mk calls) supplied by an attached
         compressed-representation manager (lib/dd); None reports 0 *)
}

exception Table_full

(* Rare-path hook for fault injection (lib/resil): invoked from the node
   creation beat, cache growth and gc entry — never per probe, so with no
   hook installed the cost is one branch on paths already off the hot
   loop.  The hook may raise (forced Node_limit, simulated abort) or wipe
   the caches; either leaves the manager consistent, exactly as the tick
   hook does. *)
let[@inline] fault_point man =
  match man.fault with None -> () | Some fn -> fn ()

let tag_and = 0
let tag_or = 1
let tag_xor = 2

(* Node creations between two invocations of the tick hook: frequent enough
   that a runaway operation is interrupted promptly, rare enough that the
   hook costs nothing on the hot path. *)
let tick_period = 256

(* ------------------------------------------------------------------ *)
(* Managers and variables                                             *)
(* ------------------------------------------------------------------ *)

let rec pow2_le n k = if 2 * k <= n then pow2_le n (2 * k) else k
let pow2_le n = pow2_le (max n 1024) 1024

(* One-time OCaml GC tuning for BDD workloads (DESIGN.md §Kernel): the
   kernel allocates a torrent of small long-lived nodes, so a bigger
   minor heap (16 MB instead of the 2 MB default) keeps the build phase
   of an operation out of the promotion treadmill, and a higher
   space_overhead trades heap slack for fewer major slices.  In OCaml
   5.1 [Gc.set] resizes only the calling domain's minor heap: a domain
   spawned afterwards, a pool helper included, starts at the 2 MB
   default.  The computed tables are multi-MB arrays, which the runtime
   gets from malloc, so the tuning also pins glibc's mmap threshold at
   128 KiB: left dynamic, glibc raises it past the tables' size at their
   first free and keeps every later freed table in its heap instead of
   returning it to the OS.  Set BDD_GC_TUNE=0 to opt out, or call Gc.set
   after the first Bdd.create to override; existing user settings are
   never lowered. *)
let gc_tuned = Atomic.make false

external pin_mmap_threshold : unit -> unit = "bdd_pin_mmap_threshold"
[@@noalloc]

let tune_gc () =
  if not (Atomic.exchange gc_tuned true) then
    match Sys.getenv_opt "BDD_GC_TUNE" with
    | Some ("0" | "off" | "no" | "false") -> ()
    | Some _ | None ->
        let g = Gc.get () in
        Gc.set
          {
            g with
            Gc.minor_heap_size = max g.Gc.minor_heap_size (1 lsl 21);
            space_overhead = max g.Gc.space_overhead 200;
          };
        pin_mmap_threshold ()

let create ?(nvars = 0) ?(shared = false) () =
  tune_gc ();
  let rec ff = { uid = 0; var = -1; hi = ff; lo = ff } in
  let rec tt = { uid = 1; var = -1; hi = tt; lo = tt } in
  let rec nil = { uid = -1; var = -1; hi = nil; lo = nil } in
  let man =
    {
      ff;
      tt;
      nil;
      shared;
      node_limit = None;
      cache_limit = 2_000_000;
      cache_cap = pow2_le 2_000_000;
      unique = ut_make nil (if shared then ut_shared_stripes else 1);
      var_lock = Mutex.create ();
      cache_lock = Mutex.create ();
      var_level = Array.init (max nvars 16) (fun i -> i);
      level_var = Array.init (max nvars 16) (fun i -> i);
      n_vars = nvars;
      sets = (if shared then [||] else [| node_tables nil |]);
      next_uid = 2;
      nodes_made = 0;
      peak_unique = 0;
      a_next_uid = Atomic.make 2;
      a_live = Atomic.make 0;
      a_nodes_made = Atomic.make 0;
      a_peak_unique = Atomic.make 0;
      ut_grows = Atomic.make 0;
      ut_locks = Atomic.make 0;
      stripe_waits = Atomic.make 0;
      cas_retries = Atomic.make 0;
      node_limit_hits = Atomic.make 0;
      gc_runs = 0;
      gc_collected = 0;
      observer = None;
      tick = None;
      tick_countdown = tick_period;
      fault = None;
      store_stats = None;
      table_cap = None;
      stripe_cap = max_int;
      ut_full_hits = Atomic.make 0;
      chain_stats = None;
    }
  in
  man

let is_shared man = man.shared

let nvars man = man.n_vars
let tt man = man.tt
let ff man = man.ff
let id f = f.uid
let equal f g = f == g

let view f =
  if f.var >= 0 then Node { var = f.var; hi = f.hi; lo = f.lo }
  else if f.uid = 1 then True
  else False

let is_const f = f.var < 0
let is_true f = f.uid = 1
let is_false f = f.uid = 0

let topvar f =
  if f.var < 0 then invalid_arg "Bdd.topvar: constant" else f.var

let high f = if f.var < 0 then invalid_arg "Bdd.high: constant" else f.hi
let low f = if f.var < 0 then invalid_arg "Bdd.low: constant" else f.lo

let level_of_var man v =
  if v < 0 || v >= man.n_vars then invalid_arg "Bdd.level_of_var";
  man.var_level.(v)

let var_at_level man l =
  if l < 0 || l >= man.n_vars then invalid_arg "Bdd.var_at_level";
  man.level_var.(l)

let order man = Array.sub man.level_var 0 man.n_vars

(* Level of the root node; constants sink below every variable.  The
   read is in bounds: a node's variable was declared before the node was
   made, and [var_level] never shrinks. *)
let[@inline] level man f =
  if f.var < 0 then max_int else Array.unsafe_get man.var_level f.var

let grow_vars_quiet man n =
  let cap = Array.length man.var_level in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    (* Identity-initialized, so slots beyond [n_vars] already hold the
       value the fresh-variable loop below would write.  A concurrent
       reader holding a stale array pointer therefore still sees correct
       levels for every variable that existed when it fetched it, and the
       in-place writes below are value-preserving no-ops for any racing
       reader of the current array. *)
    let vl = Array.init cap' (fun i -> i)
    and lv = Array.init cap' (fun i -> i) in
    Array.blit man.var_level 0 vl 0 man.n_vars;
    Array.blit man.level_var 0 lv 0 man.n_vars;
    man.var_level <- vl;
    man.level_var <- lv
  end;
  (* fresh variables enter at the bottom of the order *)
  for v = man.n_vars to n - 1 do
    man.var_level.(v) <- v;
    man.level_var.(v) <- v
  done;
  man.n_vars <- max man.n_vars n

let grow_vars man n =
  if man.shared then begin
    Mutex.lock man.var_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock man.var_lock)
      (fun () -> grow_vars_quiet man n)
  end
  else grow_vars_quiet man n

(* Raise Table_full; never called while holding a stripe lock.  A stripe
   that may neither grow nor take the insert while staying under 2/3
   load would otherwise creep toward the full-table regime where the
   open-addressed probe loop can no longer find a free slot — refusing
   the insert keeps the failure prompt, documented, and counted. *)
let table_full_hit man =
  Atomic.incr man.ut_full_hits;
  raise Table_full

(* Raise Node_limit; never called while holding a stripe lock. *)
let limit_hit man limit =
  Atomic.incr man.node_limit_hits;
  (match man.observer with
  | None -> ()
  | Some obs -> obs (Limit_hit { limit }));
  raise Node_limit

(* Monotone CAS-max, for a shared manager's peak_unique. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let unique_size man =
  if man.shared then Atomic.get man.a_live
  else (Array.unsafe_get man.unique.u_stripes 0).st_count

let nodes_made man =
  if man.shared then Atomic.get man.a_nodes_made else man.nodes_made

let grow_event man =
  Atomic.incr man.ut_grows;
  match man.observer with
  | None -> ()
  | Some obs ->
      obs
        (Unique_grow
           { capacity = ut_capacity man.unique; live = unique_size man })

(* Bookkeeping after a fresh node is published and counted; runs outside
   any stripe lock.  One countdown per fresh node feeds both the
   cooperative tick hook and the observer's progress beat; the
   decrement-and-test is the whole disabled-path cost.  The countdown is
   a plain mutable field — concurrent decrements can lose a step, which
   only shifts when the hook fires, never whether it keeps firing. *)
let node_made man =
  man.tick_countdown <- man.tick_countdown - 1;
  if man.tick_countdown <= 0 then begin
    man.tick_countdown <- tick_period;
    (match man.observer with
    | None -> ()
    | Some obs ->
        obs
          (Progress
             { nodes_made = nodes_made man; unique_size = unique_size man }));
    fault_point man;
    match man.tick with None -> () | Some fn -> fn ()
  end

(* Shared-manager miss path: take the stripe lock, re-probe the current
   array, and only then publish (publish-then-resolve).  Losing the race
   to another domain costs one counted re-probe, never a duplicate
   node — the winner's entry is found and returned. *)
let mk_shared man st h var hi lo =
  let u = man.unique in
  if not (Mutex.try_lock st.st_lock) then begin
    Atomic.incr man.stripe_waits;
    Mutex.lock st.st_lock
  end;
  Atomic.incr man.ut_locks;
  let arr = st.st_node in
  let mask = Array.length arr - 1 in
  let s = ut_scan arr mask var hi lo ((h lsr u.u_shift) land mask) in
  if s >= 0 then begin
    (* another domain published it between our probe and the lock *)
    let n = Array.unsafe_get arr s in
    Mutex.unlock st.st_lock;
    Atomic.incr man.cas_retries;
    n
  end
  else begin
    (match man.node_limit with
    | Some limit when Atomic.get man.a_live >= limit ->
        Mutex.unlock st.st_lock;
        limit_hit man limit
    | Some _ | None -> ());
    if
      3 * (st.st_count + 1) > 2 * (mask + 1)
      && 2 * (mask + 1) > man.stripe_cap
    then begin
      Mutex.unlock st.st_lock;
      table_full_hit man
    end;
    let n = { uid = Atomic.fetch_and_add man.a_next_uid 1; var; hi; lo } in
    Array.unsafe_set arr (lnot s) n;
    st.st_count <- st.st_count + 1;
    Atomic.incr man.a_live;
    let grew =
      if 3 * st.st_count > 2 * (mask + 1) then begin
        stripe_grow man.nil u.u_shift st;
        true
      end
      else false
    in
    Mutex.unlock st.st_lock;
    if grew then grow_event man;
    Atomic.incr man.a_nodes_made;
    atomic_max man.a_peak_unique (Atomic.get man.a_live);
    node_made man;
    n
  end

(* Unchecked hash-consed constructor: callers guarantee the ordering
   invariant.  The hit path — shared or private — is a lock-free masked
   scan over one stripe snapshot and allocates nothing. *)
let mk_raw man var hi lo =
  if hi == lo then hi
  else
    let u = man.unique in
    let h = mix3 var hi.uid lo.uid in
    let st =
      Array.unsafe_get u.u_stripes (h land (Array.length u.u_stripes - 1))
    in
    let arr = st.st_node in
    let mask = Array.length arr - 1 in
    let s = ut_scan arr mask var hi lo ((h lsr u.u_shift) land mask) in
    if s >= 0 then Array.unsafe_get arr s
    else if man.shared then mk_shared man st h var hi lo
    else begin
      (* private manager: single stripe, single domain, no locking and no
         atomics; the limit check against the exact count keeps
         Node_limit precise *)
      (match man.node_limit with
      | Some limit when st.st_count >= limit -> limit_hit man limit
      | Some _ | None -> ());
      if
        3 * (st.st_count + 1) > 2 * (mask + 1)
        && 2 * (mask + 1) > man.stripe_cap
      then table_full_hit man;
      let n = { uid = man.next_uid; var; hi; lo } in
      man.next_uid <- n.uid + 1;
      Array.unsafe_set arr (lnot s) n;
      let live = st.st_count + 1 in
      st.st_count <- live;
      if 3 * live > 2 * (mask + 1) then begin
        stripe_grow man.nil u.u_shift st;
        grow_event man
      end;
      man.nodes_made <- man.nodes_made + 1;
      if live > man.peak_unique then man.peak_unique <- live;
      node_made man;
      n
    end

let mk man ~var ~hi ~lo =
  if var < 0 || var >= man.n_vars then invalid_arg "Bdd.mk: unknown variable";
  let lv = man.var_level.(var) in
  if level man hi <= lv || level man lo <= lv then
    invalid_arg "Bdd.mk: children must lie below the variable";
  mk_raw man var hi lo

let ithvar man i =
  if i < 0 then invalid_arg "Bdd.ithvar";
  if i >= man.n_vars then grow_vars man (i + 1);
  mk_raw man i man.tt man.ff

let nithvar man i =
  if i < 0 then invalid_arg "Bdd.nithvar";
  if i >= man.n_vars then grow_vars man (i + 1);
  mk_raw man i man.ff man.tt

let new_var man = ithvar man man.n_vars

(* The cofactors of [f] with respect to the variable at level [lv]: its
   children when [f] sits at [lv], else [f] itself.  Two selectors rather
   than one function returning a pair, so a recursion step builds no
   tuple. *)
let[@inline] hi_at man f lv = if level man f = lv then f.hi else f
let[@inline] lo_at man f lv = if level man f = lv then f.lo else f

(* The calling domain's table set.  A private manager has one; a shared
   manager registers one for a domain, under [cache_lock], the first time
   that domain uses it.  The recursions look their set up once per public
   operation, and a forked task once on the domain that runs it, and pass
   it down, so a probe makes no lookup and no C call.  Only the set's
   domain writes it in place; a set is never replaced, so a racy read of
   a slot sees [vacant] (and retries under the lock) or the set itself. *)
let register man slot =
  Mutex.protect man.cache_lock (fun () ->
      let sets = man.sets in
      if slot < Array.length sets && sets.(slot) != vacant then sets.(slot)
      else begin
        let cs = node_tables man.nil in
        let n = Array.length sets in
        let sets =
          if slot < n then sets
          else Array.append sets (Array.make (slot + 1 - n) vacant)
        in
        sets.(slot) <- cs;
        man.sets <- sets;
        cs
      end)

let tables man =
  if not man.shared then Array.unsafe_get man.sets 0
  else
    let slot = domain_slot () in
    let sets = man.sets in
    if slot < Array.length sets && Array.unsafe_get sets slot != vacant then
      Array.unsafe_get sets slot
    else register man slot

(* A table doubles when its inserts since creation reach twice its slots
   — a cheap churn signal — but never past [cache_cap], so each table's
   memory is hard-bounded (CUDD sizes its computed table the same way).
   The doubled table replaces the old one, contents dropped, and the
   insert re-reads its table afterwards: the fault hook may have wiped
   the set. *)
let[@inline] table_due man c =
  let cap = Array.length c.vals in
  c.stores >= 2 * cap && 2 * cap <= man.cache_cap

let table_grown man name capacity =
  (match man.observer with
  | None -> ()
  | Some obs -> obs (Cache_resize { cache = name; capacity }));
  fault_point man

(* Computed-table probe with hit/miss accounting for {!stats}: one
   masked slot, three int compares, no allocation and no C call.  Returns
   [man.nil] on a miss; callers test [r.uid >= 0] (every real node has a
   non-negative uid). *)
let[@inline] cache_find man cs i a b k =
  let c = Array.unsafe_get cs.tabs i in
  let keys = c.keys and vals = c.vals in
  let s = mix3 a b k land (Array.length vals - 1) in
  if
    Array.unsafe_get keys (3 * s) = a
    && Array.unsafe_get keys ((3 * s) + 1) = b
    && Array.unsafe_get keys ((3 * s) + 2) = k
  then begin
    cs.hits <- cs.hits + 1;
    Array.unsafe_get vals s
  end
  else begin
    cs.misses <- cs.misses + 1;
    man.nil
  end

(* Lossy insertion: overwrite the slot in place, four words and no
   allocation. *)
let cache_add man cs i a b k v =
  let c = Array.unsafe_get cs.tabs i in
  if table_due man c then begin
    let cap = 2 * Array.length c.vals in
    cs.tabs.(i) <- table_make 3 cap man.nil;
    table_grown man tab_names.(i) cap
  end;
  let c = Array.unsafe_get cs.tabs i in
  let keys = c.keys and vals = c.vals in
  let s = mix3 a b k land (Array.length vals - 1) in
  let j = 3 * s in
  let q1 = Array.unsafe_get keys j in
  if q1 < 0 then c.filled <- c.filled + 1
  else begin
    cs.overwrites <- cs.overwrites + 1;
    if
      q1 = a
      && Array.unsafe_get keys (j + 1) = b
      && Array.unsafe_get keys (j + 2) = k
    then cs.races <- cs.races + 1
  end;
  Array.unsafe_set keys j a;
  Array.unsafe_set keys (j + 1) b;
  Array.unsafe_set keys (j + 2) k;
  Array.unsafe_set vals s v;
  c.stores <- c.stores + 1;
  cs.inserts <- cs.inserts + 1

let[@inline] weight_find cs k =
  let c = cs.weights in
  let keys = c.keys in
  let s = mix3 k 0 0 land (Array.length keys - 1) in
  if Array.unsafe_get keys s = k then begin
    cs.hits <- cs.hits + 1;
    Array.unsafe_get c.vals s
  end
  else begin
    cs.misses <- cs.misses + 1;
    Float.nan
  end

let weight_add man cs k v =
  if table_due man cs.weights then begin
    let cap = 2 * Array.length cs.weights.vals in
    cs.weights <- table_make 1 cap 0.;
    table_grown man "weight" cap
  end;
  let c = cs.weights in
  let keys = c.keys in
  let s = mix3 k 0 0 land (Array.length keys - 1) in
  if Array.unsafe_get keys s < 0 then c.filled <- c.filled + 1
  else cs.overwrites <- cs.overwrites + 1;
  Array.unsafe_set keys s k;
  Array.unsafe_set c.vals s v;
  c.stores <- c.stores + 1;
  cs.inserts <- cs.inserts + 1

(* ------------------------------------------------------------------ *)
(* ITE and the binary connectives                                     *)
(* ------------------------------------------------------------------ *)

(* With a [?pool] of two or more workers, [ite], [apply] and [and_exists]
   fork the hi cofactor branch onto the pool and run the lo branch inline
   while their fork budget lasts: log2(workers) + 4 levels, so the fork
   count per operation is O(2^budget) regardless of operand size.  A few
   levels beyond log2(workers) keeps every worker fed even when the
   cofactor tree is skewed, without drowning the deques in tiny tasks.
   A forked task probes the table set of the domain that runs it.  Once
   the budget is spent, and always without a pool, the recursion is the
   sequential kernel, node for node: same tables, same unique table,
   same evaluation order, nothing allocated beyond it.  Results are
   bit-identical either way: both build canonical nodes in the same
   hash-consing table, so the schedule can only change which domain
   publishes a node first, never which node represents a function. *)
let check_shared name pool man =
  if Tpool.size pool > 1 && not man.shared then
    invalid_arg (name ^ ": manager was not created with ~shared:true")

let fork_budget name man = function
  | None -> 0
  | Some pool ->
      check_shared name pool man;
      let n = Tpool.size pool in
      if n <= 1 then 0 else ilog2 n + 4

(* Fork the hi-branch, compute the lo-branch inline, join.  On an
   exception from the inline branch (Node_limit, a deadline tick), the
   forked task is cancelled-or-awaited before unwinding so it cannot
   outlive the operation and race a later quiescent gc. *)
let fork_join pool go1 go0 =
  let fut = Tpool.fork pool go1 in
  let r0 =
    try go0 ()
    with e ->
      Tpool.cancel pool fut;
      raise e
  in
  let r1 = Tpool.join pool fut in
  (r1, r0)

let rec ite_rec man cs pool budget f g h =
  if is_true f then g
  else if is_false f then h
  else if g == h then g
  else if is_true g && is_false h then f
  else if f == g then ite_rec man cs pool budget f man.tt h
  else if f == h then ite_rec man cs pool budget f g man.ff
  else
    let r = cache_find man cs tab_ite f.uid g.uid h.uid in
    if r.uid >= 0 then r
    else begin
      let lv =
        Int.min (level man f) (Int.min (level man g) (level man h))
      in
      let v = man.level_var.(lv) in
      let r =
        match pool with
        | Some p when budget > 0 ->
            let budget = budget - 1 in
            let r1, r0 =
              fork_join p
                (fun () ->
                  ite_rec man (tables man) pool budget (hi_at man f lv)
                    (hi_at man g lv) (hi_at man h lv))
                (fun () ->
                  ite_rec man cs pool budget (lo_at man f lv)
                    (lo_at man g lv) (lo_at man h lv))
            in
            mk_raw man v r1 r0
        | _ ->
            let r1 =
              ite_rec man cs pool budget (hi_at man f lv) (hi_at man g lv)
                (hi_at man h lv)
            in
            let r0 =
              ite_rec man cs pool budget (lo_at man f lv) (lo_at man g lv)
                (lo_at man h lv)
            in
            mk_raw man v r1 r0
      in
      cache_add man cs tab_ite f.uid g.uid h.uid r;
      r
    end

let ite ?pool man f g h =
  ite_rec man (tables man) pool (fork_budget "Bdd.ite" man pool) f g h

let rec not_rec man cs f =
  if is_true f then man.ff
  else if is_false f then man.tt
  else
    let r = cache_find man cs tab_not f.uid 0 0 in
    if r.uid >= 0 then r
    else begin
      let r = mk_raw man f.var (not_rec man cs f.hi) (not_rec man cs f.lo) in
      (* negation is an involution: cache both directions *)
      cache_add man cs tab_not f.uid 0 0 r;
      cache_add man cs tab_not r.uid 0 0 f;
      r
    end

let bnot man f = not_rec man (tables man) f

(* Terminal cases of the binary connectives, dispatched on the tag: the
   result, or [man.nil] when the pair needs a recursion step. *)
let[@inline] apply_term man cs tag f g =
  if tag = tag_and then
    if is_false f || is_false g then man.ff
    else if is_true f then g
    else if is_true g then f
    else if f == g then f
    else man.nil
  else if tag = tag_or then
    if is_true f || is_true g then man.tt
    else if is_false f then g
    else if is_false g then f
    else if f == g then f
    else man.nil
  else if f == g then man.ff
  else if is_false f then g
  else if is_false g then f
  else if is_true f then not_rec man cs g
  else if is_true g then not_rec man cs f
  else man.nil

(* Binary apply, sharing one tagged cache.  The connectives are
   commutative: [apply_step] gets the pair with the smaller uid first,
   for better cache reuse. *)
let rec apply man cs pool budget tag f g =
  let r = apply_term man cs tag f g in
  if r.uid >= 0 then r
  else if f.uid <= g.uid then apply_step man cs pool budget tag f g
  else apply_step man cs pool budget tag g f

and apply_step man cs pool budget tag f g =
  let r = cache_find man cs tab_op tag f.uid g.uid in
  if r.uid >= 0 then r
  else begin
    let lv = Int.min (level man f) (level man g) in
    let v = man.level_var.(lv) in
    let r =
      match pool with
      | Some p when budget > 0 ->
          let budget = budget - 1 in
          let r1, r0 =
            fork_join p
              (fun () ->
                apply man (tables man) pool budget tag (hi_at man f lv)
                  (hi_at man g lv))
              (fun () ->
                apply man cs pool budget tag (lo_at man f lv)
                  (lo_at man g lv))
          in
          mk_raw man v r1 r0
      | _ ->
          let r1 =
            apply man cs pool budget tag (hi_at man f lv) (hi_at man g lv)
          in
          let r0 =
            apply man cs pool budget tag (lo_at man f lv) (lo_at man g lv)
          in
          mk_raw man v r1 r0
    in
    cache_add man cs tab_op tag f.uid g.uid r;
    r
  end

(* The sequential connectives the recursions call inside. *)
let and_rec man cs f g = apply man cs None 0 tag_and f g
let or_rec man cs f g = apply man cs None 0 tag_or f g

let band ?pool man f g =
  apply man (tables man) pool (fork_budget "Bdd.band" man pool) tag_and f g

let bor ?pool man f g =
  apply man (tables man) pool (fork_budget "Bdd.bor" man pool) tag_or f g

let bxor ?pool man f g =
  apply man (tables man) pool (fork_budget "Bdd.bxor" man pool) tag_xor f g

let bnand man f g = bnot man (band man f g)
let bnor man f g = bnot man (bor man f g)
let biff man f g = bnot man (bxor man f g)
let bimp man f g = ite man f g man.tt
let bdiff ?pool man f g =
  ite_rec man (tables man) pool (fork_budget "Bdd.bdiff" man pool) g man.ff f

let conj man fs = List.fold_left (band man) man.tt fs
let disj man fs = List.fold_left (bor man) man.ff fs

(* satisfiability of a conjunction without building it *)
let intersects man f g =
  let seen = Hashtbl.create 64 in
  let rec go f g =
    if is_false f || is_false g then false
    else if is_true f || is_true g || f == g then true
    else
      let f, g = if f.uid <= g.uid then (f, g) else (g, f) in
      let key = (f.uid, g.uid) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        let lv = Int.min (level man f) (level man g) in
        go (hi_at man f lv) (hi_at man g lv)
        || go (lo_at man f lv) (lo_at man g lv)
      end
  in
  go f g

let rec leq_rec man cs f g =
  if f == g || is_false f || is_true g then true
  else if is_true f || is_false g then false
  else
    (* boolean result, stored as the tt/ff node *)
    let r = cache_find man cs tab_leq f.uid g.uid 0 in
    if r.uid >= 0 then is_true r
    else begin
      let lv = Int.min (level man f) (level man g) in
      let r =
        leq_rec man cs (hi_at man f lv) (hi_at man g lv)
        && leq_rec man cs (lo_at man f lv) (lo_at man g lv)
      in
      cache_add man cs tab_leq f.uid g.uid 0 (if r then man.tt else man.ff);
      r
    end

let leq man f g = leq_rec man (tables man) f g

(* ------------------------------------------------------------------ *)
(* Cofactors, composition                                             *)
(* ------------------------------------------------------------------ *)

let cofactor man f ~var b =
  if var < 0 || var >= man.n_vars then invalid_arg "Bdd.cofactor";
  let lv = man.var_level.(var) in
  with_scratch (fun memo ->
      let rec go f =
        if level man f > lv then f
        else if level man f = lv then if b then f.hi else f.lo
        else
          let k = scratch_find memo f in
          if k >= 0 then scratch_node memo k
          else begin
            let r = mk_raw man f.var (go f.hi) (go f.lo) in
            scratch_set_node memo (scratch_add memo f) r;
            r
          end
      in
      go f)

let vector_compose man f subst =
  with_scratch (fun memo ->
      let rec go f =
        if f.var < 0 then f
        else
          let k = scratch_find memo f in
          if k >= 0 then scratch_node memo k
          else begin
            let hi' = go f.hi and lo' = go f.lo in
            let gv =
              match subst f.var with Some g -> g | None -> ithvar man f.var
            in
            let r = ite man gv hi' lo' in
            scratch_set_node memo (scratch_add memo f) r;
            r
          end
      in
      go f)

let compose man f ~var g =
  vector_compose man f (fun v -> if v = var then Some g else None)

let permute man f p =
  vector_compose man f (fun v -> Some (ithvar man (p v)))

(* ------------------------------------------------------------------ *)
(* Cubes and quantification                                           *)
(* ------------------------------------------------------------------ *)

let cube man vars =
  let vars =
    List.sort_uniq
      (fun a b -> compare (level_of_var man b) (level_of_var man a))
      vars
  in
  (* deepest variable first so that mk_raw builds bottom-up *)
  List.fold_left (fun acc v -> mk_raw man v acc man.ff) man.tt vars

let cube_of_literals man lits =
  let lits =
    List.sort_uniq
      (fun (a, _) (b, _) ->
        compare (level_of_var man b) (level_of_var man a))
      lits
  in
  List.fold_left
    (fun acc (v, b) ->
      if b then mk_raw man v acc man.ff else mk_raw man v man.ff acc)
    man.tt lits

let rec exists_rec man cs vars f =
  if is_const f || is_true vars then f
  else if is_false vars then invalid_arg "Bdd.exists: not a cube"
  else
    let lf = level man f and lc = level man vars in
    if lc < lf then exists_rec man cs vars.hi f
    else
      let r = cache_find man cs tab_exist f.uid vars.uid 0 in
      if r.uid >= 0 then r
      else begin
        let r =
          if lc = lf then
            let vars = vars.hi in
            or_rec man cs (exists_rec man cs vars f.hi)
              (exists_rec man cs vars f.lo)
          else
            mk_raw man f.var (exists_rec man cs vars f.hi)
              (exists_rec man cs vars f.lo)
        in
        cache_add man cs tab_exist f.uid vars.uid 0 r;
        r
      end

let exists man ~vars f = exists_rec man (tables man) vars f

let forall man ~vars f =
  let cs = tables man in
  not_rec man cs (exists_rec man cs vars (not_rec man cs f))

(* [and_exists_step] gets the pair with the smaller uid first. *)
let rec and_exists_rec man cs pool budget vars f g =
  if is_false f || is_false g then man.ff
  else if is_true vars then and_rec man cs f g
  else if is_true f then exists_rec man cs vars g
  else if is_true g then exists_rec man cs vars f
  else if f == g then exists_rec man cs vars f
  else if f.uid <= g.uid then and_exists_step man cs pool budget vars f g
  else and_exists_step man cs pool budget vars g f

and and_exists_step man cs pool budget vars f g =
  let r = cache_find man cs tab_andex f.uid g.uid vars.uid in
  if r.uid >= 0 then r
  else begin
    let lf = level man f and lg = level man g and lc = level man vars in
    let lv = Int.min lf lg in
    let r =
      if lc < lv then and_exists_rec man cs pool budget vars.hi f g
      else
        let v = man.level_var.(lv) in
        (* at a quantified level the branches are joined by [bor] *)
        let sub = if lc = lv then vars.hi else vars in
        match pool with
        | Some p when budget > 0 ->
            let budget = budget - 1 in
            let r1, r0 =
              fork_join p
                (fun () ->
                  and_exists_rec man (tables man) pool budget sub
                    (hi_at man f lv) (hi_at man g lv))
                (fun () ->
                  and_exists_rec man cs pool budget sub (lo_at man f lv)
                    (lo_at man g lv))
            in
            if lc = lv then or_rec man cs r1 r0 else mk_raw man v r1 r0
        | _ ->
            (* lo first, unlike apply and ite: the order in which nodes
               get their uids, and so the kernel counters, rest on it *)
            let r0 =
              and_exists_rec man cs pool budget sub (lo_at man f lv)
                (lo_at man g lv)
            in
            let r1 =
              and_exists_rec man cs pool budget sub (hi_at man f lv)
                (hi_at man g lv)
            in
            if lc = lv then or_rec man cs r1 r0 else mk_raw man v r1 r0
    in
    cache_add man cs tab_andex f.uid g.uid vars.uid r;
    r
  end

let and_exists ?pool man ~vars f g =
  let budget = fork_budget "Bdd.and_exists" man pool in
  and_exists_rec man (tables man) pool budget vars f g

(* ------------------------------------------------------------------ *)
(* Generalized cofactors                                              *)
(* ------------------------------------------------------------------ *)

let rec constrain_rec man cs f c =
  if is_true c || is_const f then f
  else if f == c then man.tt
  else
    let r = cache_find man cs tab_constrain f.uid c.uid 0 in
    if r.uid >= 0 then r
    else begin
      let lv = Int.min (level man f) (level man c) in
      let v = man.level_var.(lv) in
      let c1 = hi_at man c lv and c0 = lo_at man c lv in
      let r =
        if is_false c0 then constrain_rec man cs (hi_at man f lv) c1
        else if is_false c1 then constrain_rec man cs (lo_at man f lv) c0
        else
          mk_raw man v
            (constrain_rec man cs (hi_at man f lv) c1)
            (constrain_rec man cs (lo_at man f lv) c0)
      in
      cache_add man cs tab_constrain f.uid c.uid 0 r;
      r
    end

let constrain man f c =
  if is_false c then invalid_arg "Bdd.constrain: empty care set";
  constrain_rec man (tables man) f c

let rec restrict_rec man cs f c =
  if is_true c || is_const f then f
  else if f == c then man.tt
  else
    let r = cache_find man cs tab_restrict f.uid c.uid 0 in
    if r.uid >= 0 then r
    else begin
      let lf = level man f and lc = level man c in
      let r =
        if lc < lf then
          (* the care set constrains a variable f does not mention:
             quantify it out of c *)
          restrict_rec man cs f (or_rec man cs c.hi c.lo)
        else
          let c1 = hi_at man c lf and c0 = lo_at man c lf in
          if is_false c0 then restrict_rec man cs f.hi c1
          else if is_false c1 then restrict_rec man cs f.lo c0
          else
            mk_raw man f.var
              (restrict_rec man cs f.hi c1)
              (restrict_rec man cs f.lo c0)
      in
      cache_add man cs tab_restrict f.uid c.uid 0 r;
      r
    end

let restrict man f c =
  if is_false c then invalid_arg "Bdd.restrict: empty care set";
  restrict_rec man (tables man) f c

(* ------------------------------------------------------------------ *)
(* Counting and analysis                                              *)
(* ------------------------------------------------------------------ *)

let iter_nodes fn f =
  with_scratch (fun seen ->
      let rec go f =
        if f.var >= 0 && scratch_mark seen f then begin
          go f.hi;
          go f.lo;
          fn f
        end
      in
      go f)

let fold_nodes fn acc f =
  let acc = ref acc in
  iter_nodes (fun n -> acc := fn !acc n) f;
  !acc

let nodes f = List.rev (fold_nodes (fun acc n -> n :: acc) [] f)

let shared_size fs =
  with_scratch (fun seen ->
      List.iter (scratch_mark_all seen) fs;
      seen.count)

let size f = shared_size [ f ]

let rec weight_rec man cs f =
  if is_false f then 0.
  else if is_true f then 1.
  else
    let w = weight_find cs f.uid in
    if Float.is_nan w then begin
      let w = 0.5 *. (weight_rec man cs f.hi +. weight_rec man cs f.lo) in
      weight_add man cs f.uid w;
      w
    end
    else w

let weight man f = weight_rec man (tables man) f

let count_minterms man f ~nvars = ldexp (weight man f) nvars

let density man f ~nvars =
  count_minterms man f ~nvars /. float_of_int (max 1 (size f))

let count_paths _man f =
  with_scratch (fun memo ->
      let rec go f =
        if f.var < 0 then 1.
        else
          let k = scratch_find memo f in
          if k >= 0 then scratch_float memo k
          else begin
            let p = go f.hi +. go f.lo in
            scratch_set_float memo (scratch_add memo f) p;
            p
          end
      in
      go f)

let support man f =
  let seen = Array.make man.n_vars false in
  iter_nodes (fun n -> seen.(n.var) <- true) f;
  (* listed by level *)
  let vars = ref [] in
  for l = man.n_vars - 1 downto 0 do
    if seen.(man.level_var.(l)) then vars := man.level_var.(l) :: !vars
  done;
  !vars

let support_cube man f = cube man (support man f)

let eval _man f asg =
  let rec go f =
    if f.var < 0 then is_true f else if asg f.var then go f.hi else go f.lo
  in
  go f

let any_sat _man f =
  let rec go acc f =
    if is_true f then List.rev acc
    else if is_false f then raise Not_found
    else if is_false f.hi then go ((f.var, false) :: acc) f.lo
    else go ((f.var, true) :: acc) f.hi
  in
  go [] f

let iter_sat _man ?(limit = max_int) f fn =
  let remaining = ref limit in
  let exception Done in
  let rec go acc f =
    if !remaining <= 0 then raise Done;
    if is_false f then ()
    else if is_true f then begin
      decr remaining;
      fn (List.rev acc)
    end
    else begin
      go ((f.var, true) :: acc) f.hi;
      go ((f.var, false) :: acc) f.lo
    end
  in
  try go [] f with Done -> ()

(* ------------------------------------------------------------------ *)
(* Interval minimization                                              *)
(* ------------------------------------------------------------------ *)

let squeeze man ~lower ~upper =
  if not (leq man lower upper) then invalid_arg "Bdd.squeeze: lower > upper";
  if lower == upper then lower
  else
    let care = bor man lower (bnot man upper) in
    let candidates =
      if is_false care then [ lower; upper ]
      else [ restrict man lower care; lower; upper ]
    in
    let best g acc = if size g < size acc then g else acc in
    match candidates with
    | [] -> lower
    | first :: rest -> List.fold_left (fun acc g -> best g acc) first rest

(* ------------------------------------------------------------------ *)
(* Manager maintenance                                                *)
(* ------------------------------------------------------------------ *)

let fold_sets fn acc man =
  Array.fold_left
    (fun acc cs -> if cs == vacant then acc else fn acc cs)
    acc man.sets

let iter_sets fn man = fold_sets (fun () cs -> fn cs) () man

(* Refill a set's tables in place: from its own domain, or quiescent. *)
let wipe_in_place man cs =
  Array.iter (fun c -> table_clear c man.nil) cs.tabs;
  table_clear cs.weights 0.

(* The calling domain's own set is wiped in place.  Every other set gets
   fresh tables, each installed by one pointer store, so a wipe from the
   fault hook never writes an array that another domain may be probing
   or filling. *)
let clear_caches man =
  let own =
    if not man.shared then Array.unsafe_get man.sets 0
    else
      let slot = Domain.DLS.get slot_key in
      if slot >= 0 && slot < Array.length man.sets then man.sets.(slot)
      else vacant
  in
  iter_sets
    (fun cs ->
      if cs == own then wipe_in_place man cs
      else begin
        Array.iteri
          (fun i _ -> cs.tabs.(i) <- table_make 3 table_init_cap man.nil)
          cs.tabs;
        cs.weights <- table_make 1 table_init_cap 0.
      end)
    man

(* Quiescent only: gc rebuilds the stripe arrays in place, so no other
   domain may be running operations on a shared manager during the call
   (callers in this codebase collect between requests or between image
   steps, never mid-operation). *)
let gc man ~roots =
  fault_point man;
  let u = man.unique in
  let before = unique_size man in
  let nstripes = Array.length u.u_stripes in
  let survivors = Array.make nstripes [] in
  let counts = Array.make nstripes 0 in
  let total = ref 0 in
  with_scratch (fun live ->
      List.iter (scratch_mark_all live) roots;
      ut_iter
        (fun node ->
          if scratch_find live node >= 0 then begin
            let s = mix3 node.var node.hi.uid node.lo.uid land (nstripes - 1) in
            survivors.(s) <- node :: survivors.(s);
            counts.(s) <- counts.(s) + 1;
            incr total
          end)
        u);
  (* rebuild each stripe at a capacity fitted to its survivors (the dead
     nodes' records stay valid but leave the table, exactly as before) *)
  Array.iteri
    (fun s st ->
      let cap = ref (ut_stripe_cap nstripes) in
      while 3 * counts.(s) > 2 * !cap do
        cap := 2 * !cap
      done;
      let arr = Array.make !cap man.nil in
      List.iter (place_node u.u_shift arr) survivors.(s);
      st.st_node <- arr;
      st.st_count <- counts.(s))
    u.u_stripes;
  if man.shared then Atomic.set man.a_live !total;
  iter_sets (wipe_in_place man) man;
  let collected = before - !total in
  man.gc_runs <- man.gc_runs + 1;
  man.gc_collected <- man.gc_collected + collected;
  (match man.observer with
  | None -> ()
  | Some obs -> obs (Gc { collected; live = !total }));
  collected

let set_node_limit man limit = man.node_limit <- limit

let set_cache_limit man n =
  man.cache_limit <- max 1024 n;
  man.cache_cap <- pow2_le man.cache_limit;
  (* shrink any table already above the new ceiling *)
  iter_sets
    (fun cs ->
      Array.iteri
        (fun i c ->
          if Array.length c.vals > man.cache_cap then
            cs.tabs.(i) <- table_make 3 man.cache_cap man.nil)
        cs.tabs;
      if Array.length cs.weights.vals > man.cache_cap then
        cs.weights <- table_make 1 man.cache_cap 0.)
    man

let node_limit man = man.node_limit

let set_tick man fn =
  man.tick <- fn;
  man.tick_countdown <- tick_period

let set_observer man fn = man.observer <- fn
let set_fault_hook man fn = man.fault <- fn
let set_store_stats man fn = man.store_stats <- fn
let set_chain_stats man fn = man.chain_stats <- fn

let chain_stats man =
  match man.chain_stats with None -> (0, 0) | Some fn -> fn ()

let set_table_capacity man cap =
  (match cap with
  | Some n when n <= 0 ->
      invalid_arg "Bdd.set_table_capacity: capacity must be positive"
  | Some _ | None -> ());
  man.table_cap <- cap;
  man.stripe_cap <-
    (match cap with
    | None -> max_int
    | Some n -> max 64 (n / Array.length man.unique.u_stripes))

let table_capacity man = man.table_cap
let ut_full_hits man = Atomic.get man.ut_full_hits

let stats man =
  let hot, cold, spilled =
    match man.store_stats with None -> (0, 0, 0) | Some fn -> fn ()
  in
  (* sums over the table sets; a set another domain is filling is read
     racily, so each table's count is clamped to its slots *)
  let sum fn = fold_sets (fun acc cs -> acc + fn cs) 0 man in
  let slots c = Array.length c.vals in
  let filled c = Int.min c.filled (slots c) in
  [
    ("nodes_made", nodes_made man);
    ("unique_size", unique_size man);
    ( "peak_unique",
      if man.shared then Atomic.get man.a_peak_unique else man.peak_unique );
    ("cache_hits", sum (fun cs -> cs.hits));
    ("cache_misses", sum (fun cs -> cs.misses));
    ("ite_cache", sum (fun cs -> filled cs.tabs.(tab_ite)));
    ("op_cache", sum (fun cs -> filled cs.tabs.(tab_op)));
    ("n_vars", man.n_vars);
    ("unique_capacity", ut_capacity man.unique);
    ( "cache_entries",
      sum (fun cs ->
          Array.fold_left (fun acc c -> acc + filled c) (filled cs.weights)
            cs.tabs) );
    ( "cache_capacity",
      sum (fun cs ->
          Array.fold_left (fun acc c -> acc + slots c) (slots cs.weights)
            cs.tabs) );
    ("cache_tables", sum (fun _ -> 1));
    ("cache_overwrites", sum (fun cs -> cs.overwrites));
    ("ut_grows", Atomic.get man.ut_grows);
    ("gc_runs", man.gc_runs);
    ("gc_collected", man.gc_collected);
    ("node_limit_hits", Atomic.get man.node_limit_hits);
    ("hot_nodes", hot);
    ("cold_nodes", cold);
    ("spilled_bytes", spilled);
    ("cas_retries", Atomic.get man.cas_retries);
    ("stripe_waits", Atomic.get man.stripe_waits);
    ("ut_locks", Atomic.get man.ut_locks);
    ("cache_races", sum (fun cs -> cs.races));
    ("cache_inserts", sum (fun cs -> cs.inserts));
    ("ut_full", Atomic.get man.ut_full_hits);
    ("chain_folds", fst (chain_stats man));
    ("chain_mk", snd (chain_stats man));
  ]

let reorder man ~order:level_var ~roots =
  if Array.length level_var <> man.n_vars then
    invalid_arg "Bdd.reorder: bad permutation length";
  let seen = Array.make man.n_vars false in
  Array.iter
    (fun v ->
      if v < 0 || v >= man.n_vars || seen.(v) then
        invalid_arg "Bdd.reorder: not a permutation";
      seen.(v) <- true)
    level_var;
  (* Old nodes stay valid records but leave the unique table; new nodes are
     built under the new order. *)
  ut_reset man.nil man.unique;
  if man.shared then Atomic.set man.a_live 0;
  iter_sets (wipe_in_place man) man;
  for l = 0 to man.n_vars - 1 do
    man.level_var.(l) <- level_var.(l);
    man.var_level.(level_var.(l)) <- l
  done;
  with_scratch (fun memo ->
      let rec rebuild f =
        if f.var < 0 then f
        else
          let k = scratch_find memo f in
          if k >= 0 then scratch_node memo k
          else begin
            let hi' = rebuild f.hi and lo' = rebuild f.lo in
            let r = ite man (ithvar man f.var) hi' lo' in
            scratch_set_node memo (scratch_add memo f) r;
            r
          end
      in
      List.map rebuild roots)

(* ------------------------------------------------------------------ *)
(* Serialization and cross-manager transfer                           *)
(* ------------------------------------------------------------------ *)

type serialized = {
  s_nvars : int;
  s_order : int array;
  s_nodes : (int * int * int) array;
  s_roots : int array;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let export_list man roots =
  (* a node's scratch index counts the nodes added before it, so adding
     children first makes it the serialized index less the constants *)
  with_scratch (fun index ->
      let idx f =
        if is_false f then 0
        else if is_true f then 1
        else scratch_find index f + 2
      in
      let rev_nodes = ref [] in
      let rec go f =
        if f.var >= 0 && scratch_find index f < 0 then begin
          go f.hi;
          go f.lo;
          rev_nodes := (f.var, idx f.hi, idx f.lo) :: !rev_nodes;
          ignore (scratch_add index f)
        end
      in
      List.iter go roots;
      {
        s_nvars = man.n_vars;
        s_order = Array.sub man.level_var 0 man.n_vars;
        s_nodes = Array.of_list (List.rev !rev_nodes);
        s_roots = Array.of_list (List.map idx roots);
      })

let export man f = export_list man [ f ]

let import_list man s =
  if s.s_nvars < 0 then corrupt "Bdd.import: negative variable count";
  if Array.length s.s_order <> s.s_nvars then
    corrupt "Bdd.import: order length %d does not match %d variables"
      (Array.length s.s_order) s.s_nvars;
  let seen_order = Array.make s.s_nvars false in
  Array.iter
    (fun v ->
      if v < 0 || v >= s.s_nvars then
        corrupt "Bdd.import: order entry %d outside [0,%d)" v s.s_nvars;
      if seen_order.(v) then
        corrupt "Bdd.import: order lists variable %d twice (not a permutation)"
          v;
      seen_order.(v) <- true)
    s.s_order;
  let n = Array.length s.s_nodes in
  let built = Array.make (n + 2) man.ff in
  built.(1) <- man.tt;
  Array.iteri
    (fun i (var, hi, lo) ->
      if var < 0 || var >= s.s_nvars then
        corrupt "Bdd.import: node %d has variable %d outside [0,%d)" i var
          s.s_nvars;
      if hi < 0 || hi >= i + 2 then
        corrupt "Bdd.import: node %d has then-child %d (not below it)" i hi;
      if lo < 0 || lo >= i + 2 then
        corrupt "Bdd.import: node %d has else-child %d (not below it)" i lo;
      let hi = built.(hi) and lo = built.(lo) in
      if var >= man.n_vars then grow_vars man (var + 1);
      let lv = man.var_level.(var) in
      let r =
        (* Fast path when the destination order agrees with the source
           layering at this node: a plain hash-consed constructor.  When
           the orders differ (or the input is dubious) fall back to a full
           ITE against the variable, which is correct under any order. *)
        if level man hi > lv && level man lo > lv then mk_raw man var hi lo
        else ite man (ithvar man var) hi lo
      in
      built.(i + 2) <- r)
    s.s_nodes;
  Array.to_list
    (Array.map
       (fun r ->
         if r < 0 || r >= n + 2 then
           corrupt "Bdd.import: root index %d out of range" r;
         built.(r))
       s.s_roots)

let import man s =
  match s.s_roots with
  | [| _ |] -> List.hd (import_list man s)
  | _ ->
      corrupt "Bdd.import: expected exactly one root, found %d"
        (Array.length s.s_roots)

(* Binary format: the magic string "BDD1" followed by Codec varints —
   nvars, the order array, the node count, (var, hi, lo) per node, the
   root count, and the root indices. *)

let magic = "BDD1"

let serialized_to_string s =
  let buf = Buffer.create (16 + (4 * Array.length s.s_nodes)) in
  Buffer.add_string buf magic;
  Codec.add_varint buf s.s_nvars;
  Array.iter (Codec.add_varint buf) s.s_order;
  Codec.add_varint buf (Array.length s.s_nodes);
  Array.iter
    (fun (v, h, l) ->
      Codec.add_varint buf v;
      Codec.add_varint buf h;
      Codec.add_varint buf l)
    s.s_nodes;
  Codec.add_varint buf (Array.length s.s_roots);
  Array.iter (Codec.add_varint buf) s.s_roots;
  Buffer.contents buf

(* FNV-1a (64-bit) over the canonical byte encoding: a cheap stable
   content key for registries that index published BDDs.  Collisions are
   possible, so any exactness-critical consumer must confirm a digest hit
   by comparing the full bytes — the digest only narrows the search. *)
let serialized_digest s =
  let bytes = serialized_to_string s in
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             1099511628211L)
    bytes;
  Printf.sprintf "%016Lx" !h

let serialized_of_string str =
  if String.length str < 4 || String.sub str 0 4 <> magic then
    corrupt "Bdd.serialized_of_string: bad magic";
  let r =
    Codec.reader ~pos:4 str ~fail:(fun m ->
        Corrupt ("Bdd.serialized_of_string: " ^ m))
  in
  (* the variable count is also the order's length; a node is three
     varints, so at least three bytes *)
  let nvars = Codec.count r ~min_bytes:1 in
  let order = Array.init nvars (fun _ -> Codec.varint r) in
  let nodes =
    Array.init (Codec.count r ~min_bytes:3) (fun _ ->
        let v = Codec.varint r in
        let h = Codec.varint r in
        let l = Codec.varint r in
        (v, h, l))
  in
  let roots =
    Array.init (Codec.count r ~min_bytes:1) (fun _ -> Codec.varint r)
  in
  Codec.finish r;
  { s_nvars = nvars; s_order = order; s_nodes = nodes; s_roots = roots }

let save path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (serialized_to_string s))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> serialized_of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Parallel operations (DESIGN.md §Parallel kernel)                    *)
(* ------------------------------------------------------------------ *)

type contention = {
  cas_retries : int;
  stripe_waits : int;
  ut_locks : int;
  cache_races : int;
  cache_inserts : int;
  cache_probes : int;
}

let contention (man : man) =
  let sum fn = fold_sets (fun acc cs -> acc + fn cs) 0 man in
  {
    cas_retries = Atomic.get man.cas_retries;
    stripe_waits = Atomic.get man.stripe_waits;
    ut_locks = Atomic.get man.ut_locks;
    cache_races = sum (fun cs -> cs.races);
    cache_inserts = sum (fun cs -> cs.inserts);
    cache_probes = sum (fun cs -> cs.hits + cs.misses);
  }

module Scratch = struct
  type table = scratch

  let with_table = with_scratch
  let add = scratch_add
  let find = scratch_find
end
