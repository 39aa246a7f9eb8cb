(* What one repetition of a workload reports: set-up, then one pass of a
   fixed amount of work, then the output checks (untimed). *)

type t = {
  setup_s : float;  (** workload start to the first timed op *)
  wall_s : float;  (** the pass *)
  lat : float list;  (** seconds per op *)
  attempted : int;
  failed : int;
  rss_mb : float;
      (** VmHWM in MB of the process that did the work, from the start of
          this repetition to the end of its pass *)
  layers : (string * float) list;  (** per-layer values of this pass *)
}
