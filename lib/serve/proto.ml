(* Wire protocol codec (see the mli for the frame grammar).

   Decoding is paranoid by construction: every body read goes through a
   Codec reader that checks its bounds and fails as Bad_frame, the body
   must be consumed exactly, and the whole frame is covered by a CRC-32 —
   the same discipline as Resil.Checkpoint, so the corruption properties
   of test_serialize.ml carry over to every frame kind. *)

exception Bad_frame of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_frame s)) fmt

type op =
  | Not of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Ite of int * int * int
  | Exists of int list * int
  | Forall of int list * int

type request =
  | Ping
  | Lit of { var : int; phase : bool }
  | Put of { bdd : string }
  | Fetch of { handle : int }
  | Apply of op
  | Compile of { name : string; blif : string }
  | Approx of { meth : Approx.meth; threshold : int; handle : int }
  | Decomp of { handle : int; disjunctive : bool }
  | Reach of { model : string; max_iter : int }
  | Count of { handle : int; nvars : int }
  | Sat of { handle : int }
  | Free of { handles : int list }
  | Stats
  | Attach of { key : string }

type meta = { deadline_ms : int; token : int }

let no_meta = { deadline_ms = 0; token = 0 }

type cert = Exact | Degraded of string list

type reply =
  | Pong
  | Handle of { id : int; size : int; cert : cert }
  | Bdd_payload of { bdd : string }
  | Handles of (string * int * int) list
  | Pair of { g : int; g_size : int; h : int; h_size : int; shared : int }
  | Reach_done of {
      states : float;
      iterations : int;
      images : int;
      reached : int;
      reached_size : int;
      cert : cert;
    }
  | Count_is of float
  | Sat_is of (int * bool) list option
  | Stats_are of (string * int) list
  | Freed of int
  | Error of string
  | Overloaded
  | Attached of { session : int; resumed : bool; handles : int }

(* --- printers -------------------------------------------------------- *)

let pp_op fmt = function
  | Not a -> Format.fprintf fmt "not %d" a
  | And (a, b) -> Format.fprintf fmt "and %d %d" a b
  | Or (a, b) -> Format.fprintf fmt "or %d %d" a b
  | Xor (a, b) -> Format.fprintf fmt "xor %d %d" a b
  | Ite (a, b, c) -> Format.fprintf fmt "ite %d %d %d" a b c
  | Exists (vs, a) ->
      Format.fprintf fmt "exists [%s] %d"
        (String.concat "," (List.map string_of_int vs))
        a
  | Forall (vs, a) ->
      Format.fprintf fmt "forall [%s] %d"
        (String.concat "," (List.map string_of_int vs))
        a

let pp_request fmt = function
  | Ping -> Format.pp_print_string fmt "ping"
  | Lit { var; phase } ->
      Format.fprintf fmt "lit %s%d" (if phase then "" else "!") var
  | Put { bdd } -> Format.fprintf fmt "put <%d bytes>" (String.length bdd)
  | Fetch { handle } -> Format.fprintf fmt "fetch %d" handle
  | Apply op -> Format.fprintf fmt "apply (%a)" pp_op op
  | Compile { name; blif } ->
      Format.fprintf fmt "compile %s <%d bytes>" name (String.length blif)
  | Approx { meth; threshold; handle } ->
      Format.fprintf fmt "approx %s@%d %d" (Approx.method_name meth) threshold
        handle
  | Decomp { handle; disjunctive } ->
      Format.fprintf fmt "decomp%s %d" (if disjunctive then " -disj" else "")
        handle
  | Reach { model; max_iter } ->
      Format.fprintf fmt "reach %s max_iter=%d" model max_iter
  | Count { handle; nvars } ->
      Format.fprintf fmt "count %d over %d vars" handle nvars
  | Sat { handle } -> Format.fprintf fmt "sat %d" handle
  | Free { handles } ->
      Format.fprintf fmt "free [%s]"
        (String.concat "," (List.map string_of_int handles))
  | Stats -> Format.pp_print_string fmt "stats"
  | Attach { key } -> Format.fprintf fmt "attach %S" key

let pp_cert fmt = function
  | Exact -> Format.pp_print_string fmt "exact"
  | Degraded rungs ->
      Format.fprintf fmt "degraded(%s)" (String.concat ";" rungs)

let pp_reply fmt = function
  | Pong -> Format.pp_print_string fmt "pong"
  | Handle { id; size; cert } ->
      Format.fprintf fmt "handle %d size=%d %a" id size pp_cert cert
  | Bdd_payload { bdd } ->
      Format.fprintf fmt "bdd <%d bytes>" (String.length bdd)
  | Handles hs ->
      Format.fprintf fmt "handles [%s]"
        (String.concat "; "
           (List.map
              (fun (n, id, sz) -> Printf.sprintf "%s=%d(%d)" n id sz)
              hs))
  | Pair { g; g_size; h; h_size; shared } ->
      Format.fprintf fmt "pair g=%d(%d) h=%d(%d) shared=%d" g g_size h h_size
        shared
  | Reach_done { states; iterations; images; reached; reached_size; cert } ->
      Format.fprintf fmt
        "reach %.0f states in %d iterations (%d images) -> %d(%d) %a" states
        iterations images reached reached_size pp_cert cert
  | Count_is n -> Format.fprintf fmt "count %.0f" n
  | Sat_is None -> Format.pp_print_string fmt "unsat"
  | Sat_is (Some cube) ->
      Format.fprintf fmt "sat [%s]"
        (String.concat ","
           (List.map
              (fun (v, b) -> Printf.sprintf "%s%d" (if b then "" else "!") v)
              cube))
  | Stats_are kvs -> Format.fprintf fmt "stats (%d keys)" (List.length kvs)
  | Freed n -> Format.fprintf fmt "freed %d" n
  | Error m -> Format.fprintf fmt "error %S" m
  | Overloaded -> Format.pp_print_string fmt "overloaded"
  | Attached { session; resumed; handles } ->
      Format.fprintf fmt "attached session=%d %s (%d handle(s))" session
        (if resumed then "resumed" else "fresh")
        handles

(* --- the wire's own field types, on top of Codec ----------------------- *)

(* signed values (Stats) travel zigzagged; floats as le64 bit patterns *)
let add_zigzag buf n = Codec.add_varint buf ((n lsl 1) lxor (n asr 62))
let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let r_zigzag r =
  let n = Codec.varint r in
  (n lsr 1) lxor (-(n land 1))

let r_f64 r = Int64.float_of_bits (String.get_int64_le (Codec.take r 8) 0)

(* --- framing ---------------------------------------------------------- *)

let magic = "BSV1"
let version = 1
let max_frame = 1 lsl 26
let header_len = 4 + 1 + 4
let trailer_len = 4

let frame body =
  if String.length body > max_frame then
    invalid_arg "Serve.Proto: frame body over max_frame";
  let buf = Buffer.create (String.length body + header_len + trailer_len) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_int32_le buf (Int32.of_int (String.length body));
  Buffer.add_string buf body;
  Buffer.add_int32_le buf
    (Int32.of_int (Resil.Checkpoint.crc32 (Buffer.contents buf)));
  Buffer.contents buf

let check_header s =
  (* [s] holds at least the header; returns the announced body length *)
  if String.sub s 0 4 <> magic then bad "bad magic";
  let v = Char.code s.[4] in
  if v <> version then bad "unsupported protocol version %d" v;
  let blen = Int32.to_int (String.get_int32_le s 5) land 0xFFFFFFFF in
  if blen > max_frame then bad "announced body of %d bytes over limit" blen;
  blen

(* Incremental variant of [check_header] for the event-loop front end:
   how long will the frame at the head of [s] be, once complete?  [None]
   while fewer than [header_len] bytes have arrived. *)
let frame_size s =
  if String.length s < header_len then None
  else Some (header_len + check_header s + trailer_len)

let unframe s =
  let len = String.length s in
  if len < header_len + trailer_len then bad "frame too short (%d bytes)" len;
  let blen = check_header s in
  if len <> header_len + blen + trailer_len then
    bad "frame length mismatch (announced %d, got %d)" blen
      (len - header_len - trailer_len);
  let stored = Int32.to_int (String.get_int32_le s (len - 4)) land 0xFFFFFFFF in
  let actual = Resil.Checkpoint.crc32 (String.sub s 0 (len - 4)) in
  if stored <> actual then
    bad "frame checksum mismatch (stored %08x, computed %08x)" stored actual;
  String.sub s header_len blen

let body_reader what body =
  Codec.reader body ~fail:(fun m -> Bad_frame (what ^ ": " ^ m))

let decode_body what s parse =
  let r = body_reader what (unframe s) in
  let v = parse r in
  Codec.finish r;
  v

(* --- requests --------------------------------------------------------- *)

(* An op's encoding is shared with the session journal's J_op entries,
   so it raises through whatever reader it is handed. *)
let add_op buf = function
  | Not a ->
      Codec.add_varint buf 0;
      Codec.add_varint buf a
  | And (a, b) ->
      Codec.add_varint buf 1;
      Codec.add_varint buf a;
      Codec.add_varint buf b
  | Or (a, b) ->
      Codec.add_varint buf 2;
      Codec.add_varint buf a;
      Codec.add_varint buf b
  | Xor (a, b) ->
      Codec.add_varint buf 3;
      Codec.add_varint buf a;
      Codec.add_varint buf b
  | Ite (a, b, c) ->
      Codec.add_varint buf 4;
      Codec.add_varint buf a;
      Codec.add_varint buf b;
      Codec.add_varint buf c
  | Exists (vs, a) ->
      Codec.add_varint buf 5;
      Codec.add_list buf Codec.add_varint vs;
      Codec.add_varint buf a
  | Forall (vs, a) ->
      Codec.add_varint buf 6;
      Codec.add_list buf Codec.add_varint vs;
      Codec.add_varint buf a

let read_op r =
  match Codec.varint r with
  | 0 -> Not (Codec.varint r)
  | 1 ->
      let a = Codec.varint r in
      And (a, Codec.varint r)
  | 2 ->
      let a = Codec.varint r in
      Or (a, Codec.varint r)
  | 3 ->
      let a = Codec.varint r in
      Xor (a, Codec.varint r)
  | 4 ->
      let a = Codec.varint r in
      let b = Codec.varint r in
      Ite (a, b, Codec.varint r)
  | 5 ->
      let vs = Codec.list r Codec.varint in
      Exists (vs, Codec.varint r)
  | 6 ->
      let vs = Codec.list r Codec.varint in
      Forall (vs, Codec.varint r)
  | n -> Codec.fail r "unknown apply opcode %d" n

let add_request buf ~meta req =
  (* Requests carrying a deadline or idempotency token travel inside an
     envelope (opcode 14): the metadata fields, then the plain request
     body.  A request without metadata encodes exactly as it did before
     the envelope existed, so the extension is wire-compatible. *)
  if meta.deadline_ms < 0 || meta.token < 0 then
    invalid_arg "Serve.Proto: negative request metadata";
  if meta <> no_meta then begin
    Codec.add_varint buf 14;
    Codec.add_varint buf meta.deadline_ms;
    Codec.add_varint buf meta.token
  end;
  (match req with
  | Ping -> Codec.add_varint buf 0
  | Lit { var; phase } ->
      Codec.add_varint buf 1;
      Codec.add_varint buf var;
      Codec.add_bool buf phase
  | Put { bdd } ->
      Codec.add_varint buf 2;
      Codec.add_str buf bdd
  | Fetch { handle } ->
      Codec.add_varint buf 3;
      Codec.add_varint buf handle
  | Apply op ->
      Codec.add_varint buf 4;
      add_op buf op
  | Compile { name; blif } ->
      Codec.add_varint buf 5;
      Codec.add_str buf name;
      Codec.add_str buf blif
  | Approx { meth; threshold; handle } ->
      Codec.add_varint buf 6;
      Codec.add_str buf (Approx.method_name meth);
      Codec.add_varint buf threshold;
      Codec.add_varint buf handle
  | Decomp { handle; disjunctive } ->
      Codec.add_varint buf 7;
      Codec.add_varint buf handle;
      Codec.add_bool buf disjunctive
  | Reach { model; max_iter } ->
      Codec.add_varint buf 8;
      Codec.add_str buf model;
      Codec.add_varint buf max_iter
  | Count { handle; nvars } ->
      Codec.add_varint buf 9;
      Codec.add_varint buf handle;
      Codec.add_varint buf nvars
  | Sat { handle } ->
      Codec.add_varint buf 10;
      Codec.add_varint buf handle
  | Free { handles } ->
      Codec.add_varint buf 11;
      Codec.add_list buf Codec.add_varint handles
  | Stats -> Codec.add_varint buf 12
  | Attach { key } ->
      Codec.add_varint buf 13;
      Codec.add_str buf key)

let encode_request ?(meta = no_meta) req =
  let buf = Buffer.create 64 in
  add_request buf ~meta req;
  frame (Buffer.contents buf)

(* A batch (opcode 15) carries each pipelined request as a
   length-prefixed copy of the exact body a singleton frame would have
   carried — metadata envelope and all — so pipelining adds framing, not
   a second encoding.  Replies stream back as N ordinary reply frames in
   request order; there is no batch reply envelope. *)
let batch_opcode = 15

type envelope = Single of meta * request | Batch of (meta * request) list

let encode_batch items =
  if items = [] then invalid_arg "Serve.Proto.encode_batch: empty batch";
  let buf = Buffer.create 256 in
  Codec.add_varint buf batch_opcode;
  Codec.add_list buf
    (fun buf (meta, req) ->
      let b = Buffer.create 64 in
      add_request b ~meta req;
      Codec.add_str buf (Buffer.contents b))
    items;
  frame (Buffer.contents buf)

(* [opcode] has been read already: decode_envelope reads it first to
   tell a batch from a single request *)
let parse_body r opcode =
  match opcode with
  | 0 -> Ping
  | 1 ->
      let var = Codec.varint r in
      Lit { var; phase = Codec.bool r }
  | 2 -> Put { bdd = Codec.str r }
  | 3 -> Fetch { handle = Codec.varint r }
  | 4 -> Apply (read_op r)
  | 5 ->
      let name = Codec.str r in
      Compile { name; blif = Codec.str r }
  | 6 ->
      let m = Codec.str r in
      let meth =
        match Approx.method_of_string m with
        | Some meth -> meth
        | None -> bad "unknown approximation method %S" m
      in
      let threshold = Codec.varint r in
      Approx { meth; threshold; handle = Codec.varint r }
  | 7 ->
      let handle = Codec.varint r in
      Decomp { handle; disjunctive = Codec.bool r }
  | 8 ->
      let model = Codec.str r in
      Reach { model; max_iter = Codec.varint r }
  | 9 ->
      let handle = Codec.varint r in
      Count { handle; nvars = Codec.varint r }
  | 10 -> Sat { handle = Codec.varint r }
  | 11 -> Free { handles = Codec.list r Codec.varint }
  | 12 -> Stats
  | 13 -> Attach { key = Codec.str r }
  | 14 -> bad "nested request envelope"
  | n -> bad "unknown request opcode %d" n

(* The metadata envelope (opcode 14): deadline, token, then the inner
   request.  One level only — a nested envelope is an encoding bug, not
   a forward-compatibility affordance. *)
let parse_request r opcode =
  if opcode <> 14 then (no_meta, parse_body r opcode)
  else
    let deadline_ms = Codec.varint r in
    let token = Codec.varint r in
    ({ deadline_ms; token }, parse_body r (Codec.varint r))

let decode_envelope s =
  decode_body "request" s (fun r ->
      match Codec.varint r with
      | opcode when opcode = batch_opcode ->
          let items =
            Codec.list r (fun r ->
                let item = body_reader "batch item" (Codec.str r) in
                (* a nested batch hits the unknown-opcode arm of the item
                   parser: batches do not recurse *)
                let v = parse_request item (Codec.varint item) in
                Codec.finish item;
                v)
          in
          if items = [] then bad "empty batch";
          Batch items
      | opcode ->
          let meta, req = parse_request r opcode in
          Single (meta, req))

let decode_request_meta s =
  match decode_envelope s with
  | Single (meta, req) -> (meta, req)
  | Batch _ -> bad "unexpected batch envelope (peer assumed pipelining)"

let decode_request s = snd (decode_request_meta s)

(* --- replies ---------------------------------------------------------- *)

let add_cert buf = function
  | Exact -> Codec.add_varint buf 0
  | Degraded rungs ->
      Codec.add_varint buf 1;
      Codec.add_list buf Codec.add_str rungs

let r_cert r =
  match Codec.varint r with
  | 0 -> Exact
  | 1 -> Degraded (Codec.list r Codec.str)
  | n -> bad "unknown certificate tag %d" n

let encode_reply rep =
  let buf = Buffer.create 64 in
  (match rep with
  | Pong -> Codec.add_varint buf 0
  | Handle { id; size; cert } ->
      Codec.add_varint buf 1;
      Codec.add_varint buf id;
      Codec.add_varint buf size;
      add_cert buf cert
  | Bdd_payload { bdd } ->
      Codec.add_varint buf 2;
      Codec.add_str buf bdd
  | Handles hs ->
      Codec.add_varint buf 3;
      Codec.add_list buf
        (fun buf (name, id, size) ->
          Codec.add_str buf name;
          Codec.add_varint buf id;
          Codec.add_varint buf size)
        hs
  | Pair { g; g_size; h; h_size; shared } ->
      Codec.add_varint buf 4;
      Codec.add_varint buf g;
      Codec.add_varint buf g_size;
      Codec.add_varint buf h;
      Codec.add_varint buf h_size;
      Codec.add_varint buf shared
  | Reach_done { states; iterations; images; reached; reached_size; cert } ->
      Codec.add_varint buf 5;
      add_f64 buf states;
      Codec.add_varint buf iterations;
      Codec.add_varint buf images;
      Codec.add_varint buf reached;
      Codec.add_varint buf reached_size;
      add_cert buf cert
  | Count_is n ->
      Codec.add_varint buf 6;
      add_f64 buf n
  | Sat_is cube ->
      Codec.add_varint buf 7;
      (match cube with
      | None -> Codec.add_bool buf false
      | Some lits ->
          Codec.add_bool buf true;
          Codec.add_list buf
            (fun buf (v, b) ->
              Codec.add_varint buf v;
              Codec.add_bool buf b)
            lits)
  | Stats_are kvs ->
      Codec.add_varint buf 8;
      Codec.add_list buf
        (fun buf (k, v) ->
          Codec.add_str buf k;
          add_zigzag buf v)
        kvs
  | Freed n ->
      Codec.add_varint buf 9;
      Codec.add_varint buf n
  | Error m ->
      Codec.add_varint buf 10;
      Codec.add_str buf m
  | Overloaded -> Codec.add_varint buf 11
  | Attached { session; resumed; handles } ->
      Codec.add_varint buf 12;
      Codec.add_varint buf session;
      Codec.add_bool buf resumed;
      Codec.add_varint buf handles);
  frame (Buffer.contents buf)

let decode_reply s =
  decode_body "reply" s (fun r ->
      match Codec.varint r with
      | 0 -> Pong
      | 1 ->
          let id = Codec.varint r in
          let size = Codec.varint r in
          Handle { id; size; cert = r_cert r }
      | 2 -> Bdd_payload { bdd = Codec.str r }
      | 3 ->
          Handles
            (Codec.list r (fun r ->
                 let name = Codec.str r in
                 let id = Codec.varint r in
                 (name, id, Codec.varint r)))
      | 4 ->
          let g = Codec.varint r in
          let g_size = Codec.varint r in
          let h = Codec.varint r in
          let h_size = Codec.varint r in
          Pair { g; g_size; h; h_size; shared = Codec.varint r }
      | 5 ->
          let states = r_f64 r in
          let iterations = Codec.varint r in
          let images = Codec.varint r in
          let reached = Codec.varint r in
          let reached_size = Codec.varint r in
          Reach_done
            { states; iterations; images; reached; reached_size;
              cert = r_cert r }
      | 6 -> Count_is (r_f64 r)
      | 7 ->
          Sat_is
            (if Codec.bool r then
               Some
                 (Codec.list r (fun r ->
                      let v = Codec.varint r in
                      (v, Codec.bool r)))
             else None)
      | 8 ->
          Stats_are
            (Codec.list r (fun r ->
                 let k = Codec.str r in
                 (k, r_zigzag r)))
      | 9 -> Freed (Codec.varint r)
      | 10 -> Error (Codec.str r)
      | 11 -> Overloaded
      | 12 ->
          let session = Codec.varint r in
          let resumed = Codec.bool r in
          Attached { session; resumed; handles = Codec.varint r }
      | n -> bad "unknown reply opcode %d" n)

(* --- transport -------------------------------------------------------- *)

let rec retry_read fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> retry_read fd buf off len

(* Fill exactly [len] bytes; [`Eof n] reports how many arrived first. *)
let really_read fd buf off len =
  let rec go off len =
    if len = 0 then `Ok
    else
      match retry_read fd buf off len with
      | 0 -> `Eof (off + len - len)
      | n -> go (off + n) (len - n)
  in
  go off len

let read_frame fd =
  let header = Bytes.create header_len in
  match retry_read fd header 0 header_len with
  | 0 -> None
  | n ->
      let fill_header =
        if n = header_len then `Ok
        else
          match really_read fd header n (header_len - n) with
          | `Ok -> `Ok
          | `Eof _ -> `Eof
      in
      (match fill_header with
      | `Eof -> bad "EOF inside frame header"
      | `Ok -> ());
      let hs = Bytes.to_string header in
      let blen = check_header hs in
      let rest = Bytes.create (blen + trailer_len) in
      (match really_read fd rest 0 (blen + trailer_len) with
      | `Ok -> ()
      | `Eof _ -> bad "EOF inside frame body");
      Some (hs ^ Bytes.to_string rest)

let write_frame fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n =
        try Unix.write_substring fd s off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n)
    end
  in
  go 0
