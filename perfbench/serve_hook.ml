(* What the generated Loadgen_mix reaches through its shadowed
   Serve.Client (see loadgen_prelude.ml): every request round trip is
   timed and tagged with its kind here, and the mix's connections are the
   sessions the workload opened during set-up. *)

type call = { kind : string; t0 : float; t1 : float }

let lock = Mutex.create ()
let calls : call list ref = ref []
let sessions : Serve.Client.t list ref = ref []

(* Planted wrong answer: the next Count reply is off by one, which the
   loadgen oracle must report. *)
let plant_wrong_count = Atomic.make false

let kind : Serve.Proto.request -> string = function
  | Ping -> "ping"
  | Lit _ -> "lit"
  | Put _ -> "put"
  | Fetch _ -> "fetch"
  | Apply _ -> "apply"
  | Compile _ -> "compile"
  | Approx _ -> "approx"
  | Decomp _ -> "decomp"
  | Reach _ -> "reach"
  | Count _ -> "count"
  | Sat _ -> "sat"
  | Free _ -> "free"
  | Stats -> "stats"
  | Attach _ -> "attach"

(* The kinds the closed-loop mix sends. *)
let kinds =
  [
    "lit"; "apply"; "count"; "fetch"; "sat"; "free"; "ping"; "stats";
    "approx"; "decomp"; "compile"; "reach";
  ]

let connect bind =
  let preconnected =
    Mutex.protect lock (fun () ->
        match !sessions with
        | c :: rest ->
            sessions := rest;
            Some c
        | [] -> None)
  in
  match preconnected with Some c -> c | None -> Serve.Client.connect bind

let call c req =
  let t0 = Measure.now () in
  let reply = Serve.Client.call c req in
  let t1 = Measure.now () in
  Mutex.protect lock (fun () -> calls := { kind = kind req; t0; t1 } :: !calls);
  match reply with
  | Serve.Proto.Count_is n
    when Atomic.compare_and_set plant_wrong_count true false ->
      Serve.Proto.Count_is (n +. 1.0)
  | r -> r

let take_calls () =
  Mutex.protect lock (fun () ->
      let cs = !calls in
      calls := [];
      cs)
