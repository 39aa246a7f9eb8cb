(* Reading an Obs.Trace file back: per span name, every span's duration
   and the total self time (duration minus the part its child spans cover
   on the same track), in microseconds. *)

type totals = { durations : float list; self_us : float }

let events json =
  let evs =
    match Obs.Json.member "traceEvents" json with
    | Some (Obs.Json.Arr l) -> l
    | _ -> ( match json with Obs.Json.Arr l -> l | _ -> [])
  in
  List.filter_map
    (fun ev ->
      let str k =
        match Obs.Json.member k ev with Some (Obs.Json.Str s) -> s | _ -> ""
      in
      let num k = Option.bind (Obs.Json.member k ev) Obs.Json.to_float in
      match (str "ph", num "ts", num "tid") with
      | (("B" | "E") as ph), Some ts, Some tid -> Some (ph, str "name", ts, tid)
      | _ -> None)
    evs

let analyse path =
  let table : (string, totals) Hashtbl.t = Hashtbl.create 16 in
  let add name dur self =
    let t =
      Option.value (Hashtbl.find_opt table name)
        ~default:{ durations = []; self_us = 0.0 }
    in
    Hashtbl.replace table name
      { durations = dur :: t.durations; self_us = t.self_us +. self }
  in
  (* per track: a stack of (name, start, time covered by children) *)
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (ph, name, ts, tid) ->
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match (ph, stack) with
      | "B", _ -> Hashtbl.replace stacks tid ((name, ts, ref 0.0) :: stack)
      | _, (name, start, children) :: rest ->
          let dur = ts -. start in
          add name dur (dur -. !children);
          (match rest with (_, _, up) :: _ -> up := !up +. dur | [] -> ());
          Hashtbl.replace stacks tid rest
      | _, [] -> ())
    (events (Obs.Json.read_file path));
  table

let durations table name =
  match Hashtbl.find_opt table name with Some t -> t.durations | None -> []

let total_us table name = Measure.sum (durations table name)

let self_ms table names =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt table n with
      | Some t -> acc +. (t.self_us /. 1e3)
      | None -> acc)
    0.0 names

let names_with_prefix table prefix =
  Hashtbl.fold
    (fun n _ acc -> if String.starts_with ~prefix n then n :: acc else acc)
    table []
