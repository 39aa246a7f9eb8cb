exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexing: logical lines with continuations and comments              *)
(* ------------------------------------------------------------------ *)

let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let strip_comment l =
    match String.index_opt l '#' with
    | Some i -> String.sub l 0 i
    | None -> l
  in
  (* join backslash-continued lines *)
  let rec join acc pending = function
    | [] -> List.rev (if pending = "" then acc else pending :: acc)
    | l :: rest ->
        let l = strip_comment l in
        let l = String.trim l in
        if l = "" then join acc pending rest
        else if String.length l > 0 && l.[String.length l - 1] = '\\' then
          let chunk = String.sub l 0 (String.length l - 1) in
          join acc (pending ^ chunk ^ " ") rest
        else join ((pending ^ l) :: acc) "" rest
  in
  join [] "" raw

let tokens line =
  line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* ------------------------------------------------------------------ *)
(* Parsing into declarations                                          *)
(* ------------------------------------------------------------------ *)

type decl =
  | Dinput of string
  | Doutput of string
  | Dlatch of { out : string; in_ : string; init : bool }
  | Dnames of { out : string; ins : string list; rows : (string * char) list }

let parse_decls lines =
  let model = ref "blif" in
  let decls = ref [] in
  let rec go = function
    | [] -> ()
    | line :: rest -> (
        match tokens line with
        | [] -> go rest
        | ".model" :: name :: _ ->
            model := name;
            go rest
        | ".inputs" :: names ->
            List.iter (fun n -> decls := Dinput n :: !decls) names;
            go rest
        | ".outputs" :: names ->
            List.iter (fun n -> decls := Doutput n :: !decls) names;
            go rest
        | ".latch" :: args -> (
            (* .latch <input> <output> [<type> <control>] [<init>] *)
            match args with
            | in_ :: out :: tail ->
                let init =
                  match List.rev tail with
                  | last :: _ when last = "1" -> true
                  | last :: _ when last = "0" || last = "2" || last = "3" ->
                      false
                  | _ -> false
                in
                decls := Dlatch { out; in_; init } :: !decls;
                go rest
            | _ -> fail "malformed .latch: %s" line)
        | ".names" :: args -> (
            match List.rev args with
            | [] -> fail "malformed .names: %s" line
            | out :: rev_ins ->
                (* with no inputs, a constant: the rows give the value *)
                let rows, rest = collect_rows [] rest in
                decls := Dnames { out; ins = List.rev rev_ins; rows } :: !decls;
                go rest)
        | ".end" :: _ -> ()
        | (".exdc" | ".wire_load_slope" | ".default_input_arrival") :: _ ->
            go rest
        | cmd :: _ when String.length cmd > 0 && cmd.[0] = '.' ->
            fail "unsupported construct: %s" cmd
        | _ -> fail "unexpected line: %s" line)
  and collect_rows acc = function
    | line :: rest when String.length line > 0 && line.[0] <> '.' -> (
        match tokens line with
        | [ cube; out ] when String.length out = 1 ->
            collect_rows ((cube, out.[0]) :: acc) rest
        | [ out ] when out = "0" || out = "1" ->
            (* constant row *)
            collect_rows (("", out.[0]) :: acc) rest
        | _ -> fail "malformed PLA row: %s" line)
    | rest -> (List.rev acc, rest)
  in
  go lines;
  (!model, List.rev !decls)

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)
(* ------------------------------------------------------------------ *)

let elaborate (model, decls) =
  let module B = Circuit.Builder in
  let b = B.create model in
  let defs = Hashtbl.create 64 in
  (* name -> decl *)
  let sigs = Hashtbl.create 64 in
  (* name -> signal *)
  List.iter
    (fun d ->
      match d with
      | Dinput n | Dlatch { out = n; _ } | Dnames { out = n; _ } ->
          if Hashtbl.mem defs n then fail "net %s multiply defined" n;
          Hashtbl.add defs n d
      | Doutput _ -> ())
    decls;
  (* create all latches first so feedback resolves *)
  List.iter
    (fun d ->
      match d with
      | Dlatch { out; init; _ } ->
          Hashtbl.add sigs out (B.latch b ~init out)
      | Dinput _ | Doutput _ | Dnames _ -> ())
    decls;
  let building = Hashtbl.create 16 in
  let rec net n =
    match Hashtbl.find_opt sigs n with
    | Some s -> s
    | None ->
        if Hashtbl.mem building n then fail "combinational cycle through %s" n;
        Hashtbl.add building n ();
        let s =
          match Hashtbl.find_opt defs n with
          | None -> fail "undefined net %s" n
          | Some (Dinput name) -> B.input b name
          | Some (Dlatch _) -> assert false (* pre-created *)
          | Some (Doutput _) -> assert false
          | Some (Dnames { ins; rows; _ }) -> build_cover ins rows
        in
        Hashtbl.remove building n;
        Hashtbl.add sigs n s;
        s
  and build_cover ins rows =
    match rows with
    | [] -> B.const b false
    | (_, phase) :: _ ->
        if not (List.for_all (fun (_, p) -> p = phase) rows) then
          fail "mixed-phase PLA cover";
        let in_sigs = List.map net ins in
        let product cube =
          if String.length cube <> List.length in_sigs then
            fail "PLA row width mismatch";
          let terms =
            List.mapi
              (fun i s ->
                match cube.[i] with
                | '1' -> Some s
                | '0' -> Some (B.not_ b s)
                | '-' -> None
                | c -> fail "bad PLA character %c" c)
              in_sigs
            |> List.filter_map Fun.id
          in
          B.and_list b terms
        in
        let sum = B.or_list b (List.map (fun (cube, _) -> product cube) rows) in
        if phase = '1' then sum
        else if phase = '0' then B.not_ b sum
        else fail "bad PLA output phase %c" phase
  in
  (* connect latches *)
  List.iter
    (fun d ->
      match d with
      | Dlatch { out; in_; _ } ->
          B.connect b (Hashtbl.find sigs out) ~next:(net in_)
      | Dinput _ | Doutput _ | Dnames _ -> ())
    decls;
  (* outputs *)
  List.iter
    (fun d -> match d with Doutput n -> B.output b n (net n) | _ -> ())
    decls;
  B.finish b

let parse_string text = elaborate (parse_decls (logical_lines text))

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let to_string c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let net_name = Hashtbl.create 64 in
  let name_of s =
    match Hashtbl.find_opt net_name s with
    | Some n -> n
    | None ->
        let n =
          match Circuit.gate c s with
          | Circuit.Input n -> n
          | Circuit.Latch { name; _ } -> name
          | _ -> Printf.sprintf "n%d" s
        in
        Hashtbl.add net_name s n;
        n
  in
  pr ".model %s\n" (Circuit.name c);
  let ins = Circuit.inputs c in
  if ins <> [] then
    pr ".inputs %s\n" (String.concat " " (List.map fst ins));
  if Circuit.outputs c <> [] then
    pr ".outputs %s\n"
      (String.concat " "
         (List.map (fun (n, _) -> n ^ "_out") (Circuit.outputs c)));
  List.iter
    (fun l ->
      match Circuit.gate c l with
      | Circuit.Latch { init; next; name } ->
          pr ".latch %s %s %d\n" (name_of next) name (if init then 1 else 0)
      | _ -> ())
    (Circuit.latches c);
  for s = 0 to Circuit.num_signals c - 1 do
    match Circuit.gate c s with
    | Circuit.Input _ | Circuit.Latch _ -> ()
    | Circuit.Const v -> pr ".names %s\n%s" (name_of s) (if v then "1\n" else "")
    | Circuit.Not a -> pr ".names %s %s\n0 1\n" (name_of a) (name_of s)
    | Circuit.And (a, b) ->
        pr ".names %s %s %s\n11 1\n" (name_of a) (name_of b) (name_of s)
    | Circuit.Or (a, b) ->
        pr ".names %s %s %s\n1- 1\n-1 1\n" (name_of a) (name_of b) (name_of s)
    | Circuit.Xor (a, b) ->
        pr ".names %s %s %s\n10 1\n01 1\n" (name_of a) (name_of b) (name_of s)
    | Circuit.Mux (sel, t, e) ->
        pr ".names %s %s %s %s\n11- 1\n0-1 1\n" (name_of sel) (name_of t)
          (name_of e) (name_of s)
  done;
  List.iter
    (fun (n, s) -> pr ".names %s %s_out\n1 1\n" (name_of s) n)
    (Circuit.outputs c);
  pr ".end\n";
  Buffer.contents buf

let to_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
