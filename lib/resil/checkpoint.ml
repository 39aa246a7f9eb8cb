(* Crash-safe, checksummed checkpoints (see the mli). *)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Bdd.Corrupt s)) fmt

(* --- CRC-32 (IEEE 802.3), table-driven ------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* --- trailer ---------------------------------------------------------- *)

let trailer_magic = "BDC2"
let trailer_len = 4 + 8 + 4

(* the stored crc: an unsigned le32 *)
let crc_at s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

(* The crc covers everything before it — body, magic and length field —
   so no single corruption outside the crc bytes themselves can cancel
   out (a flip in the crc makes it mismatch trivially). *)
let with_trailer body =
  let buf = Buffer.create (String.length body + trailer_len) in
  Buffer.add_string buf body;
  Buffer.add_string buf trailer_magic;
  Buffer.add_int64_le buf (Int64.of_int (String.length body));
  Buffer.add_int32_le buf (Int32.of_int (crc32 (Buffer.contents buf)));
  Buffer.contents buf

(* Strip and verify the trailer; [None] when the file predates it (legacy
   Bdd.save output, identified by its own magic downstream). *)
let body_of_file path data =
  let len = String.length data in
  if len < trailer_len || String.sub data (len - trailer_len) 4 <> trailer_magic
  then None
  else begin
    let announced =
      Int64.to_int (String.get_int64_le data (len - trailer_len + 4))
    in
    if announced <> len - trailer_len then
      corrupt "Resil.Checkpoint: %s announces a %d-byte body but holds %d"
        path announced (len - trailer_len);
    let stored = crc_at data (len - 4) in
    let actual = crc32 (String.sub data 0 (len - 4)) in
    if stored <> actual then
      corrupt "Resil.Checkpoint: %s checksum mismatch (stored %08x, file %08x)"
        path stored actual;
    Some (String.sub data 0 announced)
  end

(* --- in-flight temp files --------------------------------------------- *)

(* Every atomic write goes through a temp file that is renamed over the
   target on success and removed on failure.  A SIGINT (or any abnormal
   exit) between creation and rename would leak it, so the registry below
   tracks the temp paths currently in flight; [cleanup_pending] removes
   whatever is still registered and is safe to call from a signal handler
   or [at_exit] — on a normal run the registry is empty by then. *)

let pending_mutex = Mutex.create ()
let pending : (string, unit) Hashtbl.t = Hashtbl.create 8

let register_pending path =
  Mutex.lock pending_mutex;
  Hashtbl.replace pending path ();
  Mutex.unlock pending_mutex

let unregister_pending path =
  Mutex.lock pending_mutex;
  Hashtbl.remove pending path;
  Mutex.unlock pending_mutex

let cleanup_pending () =
  Mutex.lock pending_mutex;
  let paths = Hashtbl.fold (fun p () acc -> p :: acc) pending [] in
  Hashtbl.reset pending;
  Mutex.unlock pending_mutex;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  List.length paths

(* --- atomic write ----------------------------------------------------- *)

let fsync_dir dir =
  (* best-effort directory sync so the rename itself survives a crash;
     some filesystems refuse fsync on a directory fd — ignore them *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      (try Unix.close dfd with Unix.Unix_error _ -> ())

let write_atomic path data =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  register_pending tmp;
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         let n = String.length data in
         let written = Unix.write_substring fd data 0 n in
         if written <> n then failwith "short write";
         Unix.fsync fd);
     Unix.rename tmp path;
     unregister_pending tmp
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     unregister_pending tmp;
     raise e);
  fsync_dir dir

(* --- streaming atomic write ------------------------------------------- *)

(* Incremental CRC-32 over byte chunks, for bodies too large to hold in
   one string (the out-of-core level files of lib/store). *)
let crc32_update acc s off len =
  let table = Lazy.force crc_table in
  let c = ref (acc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get s i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let write_stream path fill =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  register_pending tmp;
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         let crc = ref 0 and body_len = ref 0 in
         let emit b off len =
           output_substring oc (Bytes.unsafe_to_string b) off len;
           crc := crc32_update !crc b off len;
           body_len := !body_len + len
         in
         fill ~emit;
         (* trailer: magic + le64 length + le32 crc, with the crc taken
            over body ++ magic ++ length — same layout as [with_trailer] *)
         let tail = Buffer.create trailer_len in
         Buffer.add_string tail trailer_magic;
         Buffer.add_int64_le tail (Int64.of_int !body_len);
         let tail_bytes = Buffer.to_bytes tail in
         crc := crc32_update !crc tail_bytes 0 (Bytes.length tail_bytes);
         Buffer.add_int32_le tail (Int32.of_int !crc);
         output_string oc (Buffer.contents tail);
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc));
     Unix.rename tmp path;
     unregister_pending tmp
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     unregister_pending tmp;
     raise e);
  fsync_dir dir

(* Verify the trailer of a file on disk without holding the body in
   memory: stream the bytes through the incremental CRC.  Returns the
   announced body length. *)
let verify_stream path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < trailer_len then
        corrupt "Resil.Checkpoint: %s too short for a checksum trailer" path;
      seek_in ic (len - trailer_len);
      let tail = really_input_string ic trailer_len in
      if String.sub tail 0 4 <> trailer_magic then
        corrupt "Resil.Checkpoint: %s has no checksum trailer" path;
      let announced = Int64.to_int (String.get_int64_le tail 4) in
      if announced <> len - trailer_len then
        corrupt "Resil.Checkpoint: %s announces a %d-byte body but holds %d"
          path announced (len - trailer_len);
      let stored = crc_at tail (trailer_len - 4) in
      seek_in ic 0;
      let chunk = Bytes.create 65536 in
      let crc = ref 0 and remaining = ref (len - 4) in
      while !remaining > 0 do
        let n = input ic chunk 0 (min !remaining (Bytes.length chunk)) in
        if n = 0 then corrupt "Resil.Checkpoint: %s truncated mid-read" path;
        crc := crc32_update !crc chunk 0 n;
        remaining := !remaining - n
      done;
      if stored <> !crc then
        corrupt
          "Resil.Checkpoint: %s checksum mismatch (stored %08x, file %08x)"
          path stored !crc;
      announced)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- plain BDD checkpoints -------------------------------------------- *)

let save path s = write_atomic path (with_trailer (Bdd.serialized_to_string s))

let reach_magic = "RCP1"

let load path =
  let data = read_file path in
  let body = match body_of_file path data with Some b -> b | None -> data in
  if String.length body >= 4 && String.sub body 0 4 = reach_magic then
    corrupt
      "Resil.Checkpoint: %s is a reachability checkpoint (use load_reach)"
      path;
  Bdd.serialized_of_string body

(* --- reachability checkpoints ----------------------------------------- *)

type reach_state = { iterations : int; images : int; payload : Bdd.serialized }

let save_reach path st =
  if Array.length st.payload.Bdd.s_roots <> 2 then
    invalid_arg "Resil.Checkpoint.save_reach: payload wants exactly 2 roots";
  let buf = Buffer.create 64 in
  Buffer.add_string buf reach_magic;
  Codec.add_varint buf st.iterations;
  Codec.add_varint buf st.images;
  Buffer.add_string buf (Bdd.serialized_to_string st.payload);
  write_atomic path (with_trailer (Buffer.contents buf))

let load_reach path =
  let data = read_file path in
  let body =
    match body_of_file path data with
    | Some b -> b
    | None ->
        corrupt "Resil.Checkpoint: %s has no checksum trailer" path
  in
  let len = String.length body in
  if len < 4 || String.sub body 0 4 <> reach_magic then
    corrupt "Resil.Checkpoint: %s is not a reachability checkpoint" path;
  let r =
    Codec.reader ~pos:4 body ~fail:(fun m ->
        Bdd.Corrupt (Printf.sprintf "Resil.Checkpoint: %s counter: %s" path m))
  in
  let iterations = Codec.varint r in
  let images = Codec.varint r in
  let payload =
    Bdd.serialized_of_string (String.sub body (Codec.pos r) (len - Codec.pos r))
  in
  if Array.length payload.Bdd.s_roots <> 2 then
    corrupt "Resil.Checkpoint: %s carries %d roots, expected 2" path
      (Array.length payload.Bdd.s_roots);
  { iterations; images; payload }

type policy = { path : string; every : int }
