(* Clocks, order statistics and the kernel/process counters the workloads
   read from outside the libraries. *)

(* Seconds on the monotonic clock, in nanoseconds (stubs.c). *)
external now : unit -> (float[@unboxed])
  = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

(* Collect set-up's garbage before a pass, so the pass's GC work does not
   depend on how much garbage the seed's inputs left behind. *)
let settle () = Gc.full_major ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One timed call into a layer: the span (a no-op unless Obs.Trace is on)
   carries the op id so a trace can be joined back to the op list. *)
let op ~name ~id f =
  Obs.Trace.with_span ~args:[ ("op", string_of_int id) ] name (fun () ->
      time f)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

(* Quartile distance over the median, with the quartiles Python's
   [statistics.quantiles(xs, n=4)] gives (its default "exclusive" method),
   so a run's own spread reads like the acceptance check's. *)
let spread xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    let med = median xs in
    if med = 0.0 then 0.0 else (q 3 -. q 1) /. med

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log (Float.max 1.0 x)) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* --- kernel counters (Bdd.stats), summed over distinct managers ------- *)

type kernel = {
  made : int;
  hits : int;
  lookups : int;
  gc_runs : int;
  ut_grows : int;
  peak : int;
}

let zero =
  { made = 0; hits = 0; lookups = 0; gc_runs = 0; ut_grows = 0; peak = 0 }

let kernel man =
  let s = Bdd.stats man in
  let g k = Option.value ~default:0 (List.assoc_opt k s) in
  {
    made = g "nodes_made";
    hits = g "cache_hits";
    lookups = g "cache_hits" + g "cache_misses";
    gc_runs = g "gc_runs";
    ut_grows = g "ut_grows";
    peak = g "peak_unique";
  }

let distinct mans =
  List.rev
    (List.fold_left
       (fun acc m -> if List.memq m acc then acc else m :: acc)
       [] mans)

(* Counter deltas of [f ()] over [mans]; the peak is the largest
   unique-table high-water mark reached, not a delta. *)
let kernel_delta mans f =
  let mans = distinct mans in
  let before = List.map kernel mans in
  let r = f () in
  let d =
    List.fold_left2
      (fun acc m b ->
        let a = kernel m in
        {
          made = acc.made + a.made - b.made;
          hits = acc.hits + a.hits - b.hits;
          lookups = acc.lookups + a.lookups - b.lookups;
          gc_runs = acc.gc_runs + a.gc_runs - b.gc_runs;
          ut_grows = acc.ut_grows + a.ut_grows - b.ut_grows;
          peak = max acc.peak a.peak;
        })
      zero mans before
  in
  (r, d)

let kernel_rows k =
  [
    ("bdd.nodes_made", float_of_int k.made);
    ( "bdd.cache_hit_ratio",
      float_of_int k.hits /. float_of_int (max 1 k.lookups) );
    ("bdd.gc_runs", float_of_int k.gc_runs);
    ("bdd.ut_grows", float_of_int k.ut_grows);
    ("bdd.peak_unique", float_of_int k.peak);
  ]

let add_kernel a b =
  {
    made = a.made + b.made;
    hits = a.hits + b.hits;
    lookups = a.lookups + b.lookups;
    gc_runs = a.gc_runs + b.gc_runs;
    ut_grows = a.ut_grows + b.ut_grows;
    peak = max a.peak b.peak;
  }

(* --- processor placement (stubs.c) ------------------------------------ *)

(* At times one of this guest's virtual CPUs ran a fixed ALU loop 25-40%
   slower than the other for minutes on end (36 ms against 49 ms, the
   faster one changing over time), so a single-threaded pass ran at the
   speed of whichever CPU the scheduler happened to keep it on.  Its ops
   take turns on the CPUs instead: [place k] pins the calling thread to
   the [k]-th allowed CPU, [unplace ()] lets it run on all of them
   again.  Both are no-ops with fewer than two CPUs. *)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_affinity : int array -> bool = "perfbench_set_affinity"

let cpus = lazy (allowed_cpus ())

let place k =
  let c = Lazy.force cpus in
  if Array.length c > 1 then
    ignore (set_affinity [| c.(k mod Array.length c) |])

let unplace () =
  let c = Lazy.force cpus in
  if Array.length c > 1 then ignore (set_affinity c)

(* --- /proc ------------------------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Reset this process's VmHWM to its current RSS (Linux 4.0 and later),
   so that the next reading is the peak from here on. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc "5")

(* VmHWM of a process in MB; [/proc/<pid>/status] is read line by line
   because in_channel_length is 0 on procfs. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc status"
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> scan ())
      in
      scan ())

(* Total and stolen CPU ticks of the whole machine, from the first line
   of [/proc/stat]; steal is time the hypervisor gave other guests while
   this guest's virtual CPUs wanted to run.  (0, 0) where unreadable. *)
let cpu_ticks () =
  match
    let ic = open_in "/proc/stat" in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  with
  | exception Sys_error _ -> (0, 0)
  | line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: user :: nice :: sys :: idle :: iow :: irq :: sirq :: steal :: _
        -> (
          match
            List.map int_of_string
              [ user; nice; sys; idle; iow; irq; sirq; steal ]
          with
          | v -> (List.fold_left ( + ) 0 v, int_of_string steal)
          | exception Failure _ -> (0, 0))
      | _ -> (0, 0))

let steal_share (total0, steal0) (total1, steal1) =
  if total1 > total0 then
    float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
  else 0.0

(* User plus system CPU seconds of a process, from fields 14 and 15 of
   [/proc/<pid>/stat] (clock ticks of 1/100 s, Linux's USER_HZ). *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  let rest =
    String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0
