(* Socket-hostility tests: a real server attacked over a real socket with
   torn, corrupt and stalled frames, plus a worker killed mid-request.

   The contract under attack is always the same: the server answers with
   a typed Error or hangs up the one abusive connection — it never
   wedges a worker, never corrupts another session, and never exits.
   Each test finishes by proving the server still answers a clean
   ping. *)

let with_server cfg f =
  let t =
    Serve.Server.start { cfg with Serve.Server.bind = Serve.Server.Tcp 0 }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.drain t) (fun () -> f t)

let bind_of t =
  match Serve.Server.address t with
  | Unix.ADDR_INET (_, port) -> Serve.Server.Tcp port
  | Unix.ADDR_UNIX path -> Serve.Server.Unix_path path

(* a raw attacker socket: no Client, no framing discipline *)
let with_raw t f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* bound reads so a buggy server (or test) cannot hang the suite *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Serve.Server.address t);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

(* everything the peer sends until it hangs up *)
let read_to_eof fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Buffer.contents buf
  in
  go ()

let server_still_answers t =
  let c = Serve.Client.connect_sockaddr (Serve.Server.address t) in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () -> Serve.Client.ping c)

(* --- garbage and torn frames ------------------------------------------- *)

let test_garbage_frame () =
  with_server Serve.Server.default_config (fun t ->
      with_raw t (fun fd ->
          send_all fd (String.make 64 '\xAB');
          (* the server may answer a typed protocol Error before hanging
             up, or just hang up — but must never stay silent forever *)
          let bytes = read_to_eof fd in
          if bytes <> "" then
            match Serve.Proto.decode_reply bytes with
            | Serve.Proto.Error _ -> ()
            | r ->
                Alcotest.failf "garbage drew a non-Error reply %a"
                  Serve.Proto.pp_reply r);
      server_still_answers t)

let test_truncated_frame_then_close () =
  with_server Serve.Server.default_config (fun t ->
      with_raw t (fun fd ->
          let frame = Serve.Proto.encode_request Serve.Proto.Ping in
          send_all fd (String.sub frame 0 (String.length frame / 2));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          (* mid-frame EOF: the server must just drop the connection *)
          ignore (read_to_eof fd));
      server_still_answers t)

let test_bit_flipped_frame_is_typed_error () =
  with_server Serve.Server.default_config (fun t ->
      with_raw t (fun fd ->
          let frame =
            Serve.Proto.encode_request
              (Serve.Proto.Lit { var = 3; phase = true })
          in
          (* flip a CRC bit (the last byte), leaving the length header
             intact so the server reads a complete — but corrupt —
             frame *)
          let b = Bytes.of_string frame in
          let last = Bytes.length b - 1 in
          Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
          send_all fd (Bytes.to_string b);
          let bytes = read_to_eof fd in
          (match Serve.Proto.decode_reply bytes with
          | Serve.Proto.Error m ->
              Alcotest.(check bool)
                "the Error names a protocol error" true
                (String.length m >= 14 && String.sub m 0 14 = "protocol error")
          | r ->
              Alcotest.failf "corrupt frame drew %a" Serve.Proto.pp_reply r));
      server_still_answers t)

let test_stalled_sender_times_out () =
  let cfg = { Serve.Server.default_config with io_timeout = Some 0.3 } in
  with_server cfg (fun t ->
      with_raw t (fun fd ->
          let frame = Serve.Proto.encode_request Serve.Proto.Ping in
          send_all fd (String.sub frame 0 (String.length frame / 2));
          (* ...and stall.  The server's stall timeout must fire and
             close the connection; our bounded read sees the hangup. *)
          ignore (read_to_eof fd));
      Alcotest.(check bool)
        "the server counted an io timeout" true
        (Serve.Server.io_timeouts t >= 1);
      server_still_answers t)

(* A frame whose checksum is valid but whose body announces a negative
   length: Compile (opcode 5) with a name length of nine bytes, the ninth
   setting the sign bit of an OCaml int.  The frame reaches the body
   decoder, which must answer a typed protocol error — a decoder that
   let Invalid_argument escape would kill the event loop, and no later
   connection would be answered. *)
let negative_length_frame () =
  Test_codec.seal_frame "\x05\x80\x80\x80\x80\x80\x80\x80\x80\x40"

let test_negative_length_is_typed_error () =
  with_server Serve.Server.default_config (fun t ->
      let frame = negative_length_frame () in
      Alcotest.(check int) "a 23-byte frame" 23 (String.length frame);
      with_raw t (fun fd ->
          send_all fd frame;
          match Serve.Proto.decode_reply (read_to_eof fd) with
          | Serve.Proto.Error m ->
              Alcotest.(check bool)
                "the Error names a protocol error" true
                (String.length m >= 14 && String.sub m 0 14 = "protocol error")
          | r -> Alcotest.failf "the frame drew %a" Serve.Proto.pp_reply r);
      (* a second connection, on raw bounded reads so that a dead event
         loop fails the test instead of hanging it *)
      with_raw t (fun fd ->
          send_all fd (Serve.Proto.encode_request Serve.Proto.Ping);
          match Serve.Proto.read_frame fd with
          | Some reply -> (
              match Serve.Proto.decode_reply reply with
              | Serve.Proto.Pong -> ()
              | r -> Alcotest.failf "Ping drew %a" Serve.Proto.pp_reply r)
          | None -> Alcotest.fail "the server hung up on a Ping"))

(* --- a killed worker must not lose other sessions ----------------------- *)

let test_worker_kill_preserves_sessions () =
  (* one worker shared by two durable sessions.  A marker request wedges
     it (once) past the supervisor's hang timeout: the supervisor must
     respawn the domain, quarantine only the poisoned session, rebuild it
     from its journal — and the other session must not notice. *)
  let wedged = Atomic.make false in
  let on_dispatch = function
    | Serve.Proto.Fetch { handle = 777777 } ->
        if not (Atomic.exchange wedged true) then Thread.delay 1.0
    | _ -> ()
  in
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      hang_timeout = Some 0.2;
      on_dispatch = Some on_dispatch;
    }
  in
  with_server cfg (fun t ->
      let bind = bind_of t in
      let ca = Serve.Client.connect_retrying ~key:"victim" bind in
      let cb = Serve.Client.connect_retrying ~key:"bystander" bind in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close ca;
          Serve.Client.close cb)
        (fun () ->
          let handle_of = function
            | Serve.Proto.Handle { id; _ } -> id
            | r -> Alcotest.failf "expected Handle, got %a" Serve.Proto.pp_reply r
          in
          let ha =
            handle_of
              (Serve.Client.call_idem ca
                 (Serve.Proto.Lit { var = 1; phase = true }))
          in
          let hb =
            handle_of
              (Serve.Client.call_idem cb
                 (Serve.Proto.Lit { var = 2; phase = true }))
          in
          (* the poisoned request: wedges the worker on victim's session.
             The supervisor kills + respawns the domain and quarantines
             the session; the retrying client reconnects, re-attaches and
             retries — by then the hook lets it through to a clean
             "unknown handle" error. *)
          (match
             Serve.Client.call_idem ca (Serve.Proto.Fetch { handle = 777777 })
           with
          | Serve.Proto.Error _ -> ()
          | r ->
              Alcotest.failf "poisoned request drew %a" Serve.Proto.pp_reply r);
          Alcotest.(check bool) "the worker was respawned" true
            (Serve.Server.respawns t >= 1);
          Alcotest.(check bool) "the session was quarantined" true
            (Serve.Server.quarantined t >= 1);
          Alcotest.(check bool) "the session was rebuilt" true
            (Serve.Server.rebuilt_sessions t >= 1);
          (* victim's pre-crash handle survived the rebuild *)
          let man = Bdd.create ~nvars:4 () in
          (match
             Serve.Client.call_idem ca (Serve.Proto.Fetch { handle = ha })
           with
          | Serve.Proto.Bdd_payload { bdd } ->
              let f = Bdd.import man (Bdd.serialized_of_string bdd) in
              Alcotest.(check bool)
                "victim's handle still holds x1" true
                (Bdd.equal f (Bdd.ithvar man 1))
          | r -> Alcotest.failf "victim fetch drew %a" Serve.Proto.pp_reply r);
          (* the bystander session never noticed *)
          match
            Serve.Client.call_idem cb (Serve.Proto.Fetch { handle = hb })
          with
          | Serve.Proto.Bdd_payload { bdd } ->
              let f = Bdd.import man (Bdd.serialized_of_string bdd) in
              Alcotest.(check bool)
                "bystander's handle still holds x2" true
                (Bdd.equal f (Bdd.ithvar man 2))
          | r -> Alcotest.failf "bystander fetch drew %a" Serve.Proto.pp_reply r))

(* --- journal round-trip and corruption ---------------------------------- *)

let test_journal_roundtrip_and_corruption () =
  let man = Bdd.create ~nvars:4 () in
  let x0 = Bdd.ithvar man 0 and x1 = Bdd.ithvar man 1 in
  let entries =
    [
      Serve.Session.J_lit { handle = 1; var = 0; phase = true };
      Serve.Session.J_lit { handle = 2; var = 1; phase = true };
      Serve.Session.J_op { handle = 3; op = Serve.Proto.And (1, 2) };
      Serve.Session.J_bytes
        { handle = 4; bdd = Bdd.serialized_to_string (Bdd.export man (Bdd.bxor man x0 x1)) };
      Serve.Session.J_free [ 2 ];
    ]
  in
  let s = Serve.Session.journal_to_string entries in
  Alcotest.(check bool) "journal round-trips" true
    (Serve.Session.journal_of_string s = entries);
  (* replay gives back the same functions under the same handles *)
  let sess, dropped = Serve.Session.rebuild ~id:42 entries in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let fetch h = Bdd.import man (Bdd.export (Serve.Session.man sess) (Serve.Session.get sess h)) in
  Alcotest.(check bool) "handle 1 is x0" true (Bdd.equal (fetch 1) x0);
  Alcotest.(check bool)
    "handle 3 is x0 AND x1" true
    (Bdd.equal (fetch 3) (Bdd.band man x0 x1));
  Alcotest.(check bool)
    "handle 4 is x0 XOR x1" true
    (Bdd.equal (fetch 4) (Bdd.bxor man x0 x1));
  (match Serve.Session.get sess 2 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "freed handle 2 must stay freed after replay");
  (* any flipped byte in the encoding must be rejected, not replayed *)
  let b = Bytes.of_string s in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  match Serve.Session.journal_of_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "corrupt journal decoded"
  | exception Bdd.Corrupt _ -> ()

(* a negative nine-byte count or length behind a valid checksum: the
   journal reader must answer Corrupt, whatever it was counting *)
let test_journal_negative_counts () =
  let neg9 = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  let seal body = body ^ Test_codec.le32 (Resil.Checkpoint.crc32 body) in
  List.iter
    (fun (what, body) ->
      match Serve.Session.journal_of_string (seal body) with
      | exception Bdd.Corrupt _ -> ()
      | exception e ->
          Alcotest.failf "%s: expected Bdd.Corrupt, got %s" what
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("entry count", "BSJ1" ^ neg9);
      ("bytes length", "BSJ1\x01\x02\x01" ^ neg9);
      ("free list count", "BSJ1\x01\x05" ^ neg9);
      ("exists list count", "BSJ1\x01\x01\x01\x05" ^ neg9);
      ("lit handle", "BSJ1\x01\x00" ^ neg9 ^ "\x00\x01");
    ]

let test_journal_compacts_only_when_it_shrinks () =
  (* a session holding more live handles than the compaction cap must not
     re-compact on every record: compaction rewrites the journal to one
     entry per live handle, so when that floor is above the cap the old
     trigger exported every live BDD to bytes on every request.  The
     deterministic J_lit entries staying as ops proves compaction never
     fired. *)
  let sess = Serve.Session.create ~id:7 () in
  let man = Serve.Session.man sess in
  let n = 600 in
  for h = 1 to n do
    let var = h mod 16 in
    Serve.Session.put_at sess ~handle:h (Bdd.ithvar man var);
    Serve.Session.record sess (Serve.Session.J_lit { handle = h; var; phase = true })
  done;
  Alcotest.(check int) "no compaction: one entry per live handle" n
    (Serve.Session.journal_length sess);
  let exported =
    List.filter
      (function Serve.Session.J_bytes _ -> true | _ -> false)
      (Serve.Session.journal sess)
  in
  Alcotest.(check int) "lit entries were never exported to bytes" 0
    (List.length exported);
  (* ...while a journal that CAN shrink (few live handles, much churn)
     still self-compacts past the cap *)
  let small = Serve.Session.create ~id:8 () in
  let man2 = Serve.Session.man small in
  for h = 1 to 8 do
    Serve.Session.put_at small ~handle:h (Bdd.ithvar man2 h)
  done;
  for i = 1 to 600 do
    let h = 1 + (i mod 8) in
    Serve.Session.record small
      (Serve.Session.J_lit { handle = h; var = h; phase = true })
  done;
  Alcotest.(check bool) "a shrinkable journal compacted" true
    (Serve.Session.journal_length small < 200)

(* --- stale socket files -------------------------------------------------- *)

let test_stale_socket_is_reclaimed () =
  let dir = Filename.temp_file "serve_stale" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "bdd.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* a corpse: a bound-then-closed socket leaves a dead file behind *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.close fd;
      Alcotest.(check bool) "the corpse exists" true (Sys.file_exists path);
      (* a restarting server must reclaim it... *)
      let cfg =
        { Serve.Server.default_config with bind = Serve.Server.Unix_path path }
      in
      let t = Serve.Server.start cfg in
      Fun.protect
        ~finally:(fun () -> Serve.Server.drain t)
        (fun () ->
          server_still_answers t;
          (* ...but never steal a live server's socket *)
          match Serve.Server.start cfg with
          | t2 ->
              Serve.Server.drain t2;
              Alcotest.fail "a second server bound a live socket"
          | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
              server_still_answers t))

let tests =
  ( "serve-hostile",
    [
      Alcotest.test_case "garbage frames are refused, server survives" `Quick
        test_garbage_frame;
      Alcotest.test_case "mid-frame EOF drops only that connection" `Quick
        test_truncated_frame_then_close;
      Alcotest.test_case "a corrupt frame draws a typed protocol error" `Quick
        test_bit_flipped_frame_is_typed_error;
      Alcotest.test_case "a stalled sender trips the io timeout" `Quick
        test_stalled_sender_times_out;
      Alcotest.test_case
        "a negative length draws a protocol error, the loop serves on"
        `Quick test_negative_length_is_typed_error;
      Alcotest.test_case "a killed worker loses no session state" `Quick
        test_worker_kill_preserves_sessions;
      Alcotest.test_case "journals round-trip and reject corruption" `Quick
        test_journal_roundtrip_and_corruption;
      Alcotest.test_case "journal compaction fires only when it shrinks" `Quick
        test_journal_compacts_only_when_it_shrinks;
      Alcotest.test_case "a journal with a negative count is Corrupt" `Quick
        test_journal_negative_counts;
      Alcotest.test_case "stale socket files are reclaimed, live ones are not"
        `Quick test_stale_socket_is_reclaimed;
    ] )
