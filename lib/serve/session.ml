(* Per-connection state (see the mli).  Only ever touched from the
   session's shard worker, so plain mutable structures suffice — except
   the fields the server's reader/supervisor threads look at, which stay
   on the server side (Serve.Server's registry). *)

let gc_arm_floor = 200_000
let journal_cap = 512
let dedup_window = 64

(* One entry per handle-creating (or -freeing) exchange, enough to
   rebuild the session on a fresh manager.  Deterministic exact results
   replay as operations; everything whose bytes are cheaper or whose
   recomputation is not bit-stable (degraded results, approximations,
   reach sets, decompositions) replays as exported BDD bytes. *)
type journal_entry =
  | J_lit of { handle : int; var : int; phase : bool }
  | J_op of { handle : int; op : Proto.op }
  | J_bytes of { handle : int; bdd : string }
  | J_compile of { name : string; blif : string; handles : int list }
  | J_model of { name : string; blif : string }
  | J_free of int list

type t = {
  id : int;
  key : string option;
  man : Bdd.man;
  arena : Arena.t option;
      (* when set, [man] IS the arena's shared manager: handles resolve
         zero-copy, gc is the arena's business ([reclaim]), and the
         session must give back its retained segment refs at [close] *)
  mutable arena_handles : Arena.handle list;  (* refs this session owns *)
  mutable closed : bool;
  handles : (int, Bdd.t) Hashtbl.t;
  models : (string, Circuit.t) Hashtbl.t;
  model_src : (string, string) Hashtbl.t;  (* name -> BLIF text, for journal *)
  mutable next_handle : int;
  mutable gc_arm : int;
  mutable requests : int;
  mutable journal : journal_entry list;  (* newest first *)
  mutable journal_len : int;
  dedup : (int * string) option array;  (* token -> encoded reply frame *)
  mutable dedup_next : int;
}

let create ?(shared = false) ?table_capacity ?arena ?key ~id () =
  let man =
    match arena with
    | Some a -> Arena.man a  (* zero-copy: overlay on the shared table *)
    | None ->
        let man = Bdd.create ~shared () in
        (* sessions participate in observability and chaos exactly like
           Mt.Runner job managers do *)
        if Obs.Kernel.observing () then Obs.Kernel.attach man;
        if Resil.Fault.enabled () then Resil.Fault.attach man;
        (match table_capacity with
        | Some cap -> Bdd.set_table_capacity man (Some cap)
        | None -> ());
        man
  in
  {
    id;
    key;
    man;
    arena;
    arena_handles = [];
    closed = false;
    handles = Hashtbl.create 64;
    models = Hashtbl.create 4;
    model_src = Hashtbl.create 4;
    next_handle = 1;
    gc_arm = gc_arm_floor;
    requests = 0;
    journal = [];
    journal_len = 0;
    dedup = Array.make dedup_window None;
    dedup_next = 0;
  }

let id t = t.id
let key t = t.key
let man t = t.man
let arena t = t.arena
let arena_backed t = t.arena <> None

let adopt_arena t h =
  (* take ownership of one existing reference to segment [h]; it is
     released when the session closes *)
  t.arena_handles <- h :: t.arena_handles

let retain_arena t h =
  match t.arena with
  | None -> invalid_arg "Session.retain_arena: not arena-backed"
  | Some a ->
      Arena.retain a h;
      adopt_arena t h

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.arena with
    | None -> ()
    | Some a ->
        List.iter
          (fun h -> try Arena.release a h with Not_found | Invalid_argument _ -> ())
          t.arena_handles;
        t.arena_handles <- []
  end

let put t f =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace t.handles h f;
  h

let put_at t ~handle f =
  Hashtbl.replace t.handles handle f;
  if handle >= t.next_handle then t.next_handle <- handle + 1

let get t h = Hashtbl.find t.handles h

let free t hs =
  List.fold_left
    (fun n h ->
      if Hashtbl.mem t.handles h then begin
        Hashtbl.remove t.handles h;
        n + 1
      end
      else n)
    0 hs

let handle_count t = Hashtbl.length t.handles
let add_model t name c = Hashtbl.replace t.models name c
let model t name = Hashtbl.find_opt t.models name
let roots t = Hashtbl.fold (fun _ f acc -> f :: acc) t.handles []

(* Arena-backed sessions never collect from request context: their
   manager is the process-wide shared table, other sessions' overlays
   live in it concurrently, and a sweep requires quiescence — that is
   {!Arena.reclaim}'s job, driven by the server at a safe point. *)
let gc t = if t.arena = None then Resil.Degrade.collect t.man (roots t)

let maybe_gc t =
  if t.arena = None && Bdd.unique_size t.man > t.gc_arm then begin
    gc t;
    t.gc_arm <- max gc_arm_floor (2 * Bdd.unique_size t.man)
  end

let requests t = t.requests
let note_request t = t.requests <- t.requests + 1

(* --- idempotency dedup ------------------------------------------------ *)

let dedup_find t ~token =
  if token = 0 then None
  else
    let rec scan i =
      if i >= dedup_window then None
      else
        match t.dedup.(i) with
        | Some (tok, reply) when tok = token -> Some reply
        | _ -> scan (i + 1)
    in
    scan 0

let dedup_add t ~token reply =
  if token <> 0 then begin
    t.dedup.(t.dedup_next) <- Some (token, reply);
    t.dedup_next <- (t.dedup_next + 1) mod dedup_window
  end

(* --- journal ----------------------------------------------------------- *)

let journal_length t = t.journal_len

let export_handle t h =
  Bdd.serialized_to_string (Bdd.export t.man (Hashtbl.find t.handles h))

(* Compaction: the replay log collapses to "the models, plus the live
   handles as bytes".  Freed handles, superseded ops and stale byte
   snapshots all disappear; what remains is proportional to live state,
   which is what keeps the journal lightweight over a long session. *)
let compact t =
  let models =
    Hashtbl.fold
      (fun name blif acc -> J_model { name; blif } :: acc)
      t.model_src []
  in
  let live =
    Hashtbl.fold (fun h _ acc -> h :: acc) t.handles []
    |> List.sort compare
    |> List.map (fun h -> J_bytes { handle = h; bdd = export_handle t h })
  in
  (* newest first, so the replay order (oldest first) is models then
     handles *)
  t.journal <- List.rev (models @ live);
  t.journal_len <- List.length t.journal

let record t entry =
  t.journal <- entry :: t.journal;
  t.journal_len <- t.journal_len + 1;
  (* compact only when it can actually shrink the log: a compacted
     journal is one entry per live handle + model, so a session holding
     more live handles than journal_cap must not re-compact on every
     record (each compaction exports every live BDD to bytes) *)
  let compacted_size = Hashtbl.length t.handles + Hashtbl.length t.model_src in
  if t.journal_len > max journal_cap (2 * compacted_size) then compact t

let journal t = List.rev t.journal

(* Derive the journal entry (if any) from a served exchange.  Exact
   apply results are deterministic — they replay as ops; degraded ones
   depend on budget state at serve time, so they snapshot as bytes. *)
let record_exchange t req (rep : Proto.reply) =
  match (req, rep) with
  | Proto.Lit { var; phase }, Proto.Handle { id = handle; _ } ->
      record t (J_lit { handle; var; phase })
  | Proto.Put { bdd }, Proto.Handle { id = handle; _ } ->
      record t (J_bytes { handle; bdd })
  | Proto.Apply op, Proto.Handle { id = handle; cert = Proto.Exact; _ } ->
      record t (J_op { handle; op })
  | Proto.Apply _, Proto.Handle { id = handle; cert = Proto.Degraded _; _ }
  | Proto.Approx _, Proto.Handle { id = handle; _ } ->
      record t (J_bytes { handle; bdd = export_handle t handle })
  | Proto.Compile { name; blif }, Proto.Handles hs ->
      Hashtbl.replace t.model_src name blif;
      record t (J_compile { name; blif; handles = List.map (fun (_, h, _) -> h) hs })
  | Proto.Decomp _, Proto.Pair { g; h; _ } ->
      record t (J_bytes { handle = g; bdd = export_handle t g });
      record t (J_bytes { handle = h; bdd = export_handle t h })
  | Proto.Reach { model; _ }, Proto.Reach_done { reached; _ } ->
      (* the model was registered by an earlier Compile on this session,
         so only the reached set itself needs snapshotting *)
      ignore model;
      record t (J_bytes { handle = reached; bdd = export_handle t reached })
  | Proto.Free { handles }, Proto.Freed n when n > 0 -> record t (J_free handles)
  | _ -> ()

(* --- rebuild ----------------------------------------------------------- *)

let exec_op t op =
  let man = t.man in
  let g h = Hashtbl.find t.handles h in
  let vars vs =
    List.iter (fun v -> ignore (Bdd.ithvar man v)) vs;
    Bdd.cube man vs
  in
  match op with
  | Proto.Not a -> Bdd.bnot man (g a)
  | Proto.And (a, b) -> Bdd.band man (g a) (g b)
  | Proto.Or (a, b) -> Bdd.bor man (g a) (g b)
  | Proto.Xor (a, b) -> Bdd.bxor man (g a) (g b)
  | Proto.Ite (a, b, c) -> Bdd.ite man (g a) (g b) (g c)
  | Proto.Exists (vs, a) -> Bdd.exists man ~vars:(vars vs) (g a)
  | Proto.Forall (vs, a) -> Bdd.forall man ~vars:(vars vs) (g a)

let replay t entry =
  match entry with
  | J_lit { handle; var; phase } ->
      put_at t ~handle
        (if phase then Bdd.ithvar t.man var else Bdd.nithvar t.man var)
  | J_op { handle; op } -> put_at t ~handle (exec_op t op)
  | J_bytes { handle; bdd } ->
      put_at t ~handle (Bdd.import t.man (Bdd.serialized_of_string bdd))
  | J_compile { name; blif; handles } ->
      let circuit = Blif.parse_string blif in
      let compiled = Compile.compile ~man:t.man circuit in
      let outs = List.map snd compiled.Compile.output_fns in
      if List.length outs <> List.length handles then
        failwith "journal compile arity mismatch";
      add_model t name circuit;
      Hashtbl.replace t.model_src name blif;
      List.iter2 (fun handle f -> put_at t ~handle f) handles outs
  | J_model { name; blif } ->
      let circuit = Blif.parse_string blif in
      add_model t name circuit;
      Hashtbl.replace t.model_src name blif
  | J_free hs -> ignore (free t hs)

let rebuild ?shared ?table_capacity ?arena ?key ~id entries =
  let t = create ?shared ?table_capacity ?arena ?key ~id () in
  let dropped = ref 0 in
  List.iter
    (fun e ->
      match replay t e with
      | () ->
          t.journal <- e :: t.journal;
          t.journal_len <- t.journal_len + 1
      | exception _ -> incr dropped)
    entries;
  (t, !dropped)

(* --- journal persistence ----------------------------------------------- *)

(* "BSJ1" ++ varint count ++ entries ++ le32 crc, with the CRC-32 taken
   over everything before it — the Resil.Checkpoint trailer discipline,
   written through its atomic temp+fsync+rename primitive. *)

let add_entry buf e =
  match e with
  | J_lit { handle; var; phase } ->
      Codec.add_varint buf 0;
      Codec.add_varint buf handle;
      Codec.add_varint buf var;
      Codec.add_bool buf phase
  | J_op { handle; op } ->
      Codec.add_varint buf 1;
      Codec.add_varint buf handle;
      Proto.add_op buf op
  | J_bytes { handle; bdd } ->
      Codec.add_varint buf 2;
      Codec.add_varint buf handle;
      Codec.add_str buf bdd
  | J_compile { name; blif; handles } ->
      Codec.add_varint buf 3;
      Codec.add_str buf name;
      Codec.add_str buf blif;
      Codec.add_list buf Codec.add_varint handles
  | J_model { name; blif } ->
      Codec.add_varint buf 4;
      Codec.add_str buf name;
      Codec.add_str buf blif
  | J_free hs ->
      Codec.add_varint buf 5;
      Codec.add_list buf Codec.add_varint hs

let journal_to_string entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "BSJ1";
  Codec.add_list buf add_entry entries;
  let body = Buffer.contents buf in
  Buffer.add_int32_le buf (Int32.of_int (Resil.Checkpoint.crc32 body));
  Buffer.contents buf

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bdd.Corrupt m)) fmt

let r_entry r =
  match Codec.varint r with
  | 0 ->
      let handle = Codec.varint r in
      let var = Codec.varint r in
      J_lit { handle; var; phase = Codec.bool r }
  | 1 ->
      let handle = Codec.varint r in
      J_op { handle; op = Proto.read_op r }
  | 2 ->
      let handle = Codec.varint r in
      J_bytes { handle; bdd = Codec.str r }
  | 3 ->
      let name = Codec.str r in
      let blif = Codec.str r in
      J_compile { name; blif; handles = Codec.list r Codec.varint }
  | 4 ->
      let name = Codec.str r in
      J_model { name; blif = Codec.str r }
  | 5 -> J_free (Codec.list r Codec.varint)
  | n -> Codec.fail r "unknown entry tag %d" n

let journal_of_string s =
  let len = String.length s in
  if len < 8 then corrupt "journal too short";
  let body = String.sub s 0 (len - 4) in
  let crc = Int32.to_int (String.get_int32_le s (len - 4)) land 0xFFFFFFFF in
  if Resil.Checkpoint.crc32 body <> crc then corrupt "journal checksum mismatch";
  if String.sub body 0 4 <> "BSJ1" then corrupt "journal bad magic";
  let r =
    Codec.reader ~pos:4 body ~fail:(fun m -> Bdd.Corrupt ("journal: " ^ m))
  in
  let entries = Codec.list r r_entry in
  Codec.finish r;
  entries

let journal_save t path =
  Resil.Checkpoint.write_atomic path (journal_to_string (journal t))

let journal_load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      journal_of_string (really_input_string ic n))
