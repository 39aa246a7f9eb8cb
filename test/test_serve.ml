(* In-process integration tests for the serve layer: a real Server.t on a
   loopback TCP socket, real Client connections, and oracle checks in a
   local manager.

   The load-bearing properties:
   - handle namespaces are per-session (two sessions' handle 1 are
     different BDDs, and one session's handles do not exist in another);
   - a Degraded certificate is honest: the server's BDD is a subset of
     the exact answer computed by a local oracle without budgets;
   - admission control rejects explicitly (exactly the overflowing
     requests get Overloaded, nothing hangs) — made deterministic by
     parking the single worker on a gate via the on_dispatch test hook;
   - compile + reach round-trips a sequential model with an exact state
     count;
   - drain is graceful and idempotent. *)

let with_server cfg f =
  let t = Serve.Server.start { cfg with Serve.Server.bind = Serve.Server.Tcp 0 } in
  Fun.protect ~finally:(fun () -> Serve.Server.drain t) (fun () -> f t)

let connect t = Serve.Client.connect_sockaddr (Serve.Server.address t)

let with_client t f =
  let c = connect t in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let fetch_into man c handle =
  Bdd.import man (Bdd.serialized_of_string (Serve.Client.fetch c handle))

(* --- session isolation ------------------------------------------------- *)

let test_session_isolation () =
  with_server Serve.Server.default_config (fun t ->
      with_client t (fun c1 ->
          with_client t (fun c2 ->
              let h1 = Serve.Client.lit c1 0 in
              let h2 = Serve.Client.lit c2 1 in
              (* both sessions hand out the same first handle id for
                 different functions: the namespaces are disjoint *)
              Alcotest.(check int) "both sessions start at handle 1" h1 h2;
              let man = Bdd.create ~nvars:2 () in
              let f1 = fetch_into man c1 h1 in
              let f2 = fetch_into man c2 h2 in
              Alcotest.(check bool)
                "session 1's handle is x0" true
                (Bdd.equal f1 (Bdd.ithvar man 0));
              Alcotest.(check bool)
                "session 2's handle is x1" true
                (Bdd.equal f2 (Bdd.ithvar man 1));
              (* a handle that only exists in session 1 is unknown in 2 *)
              ignore (Serve.Client.lit c1 2);
              match Serve.Client.call c2 (Serve.Proto.Fetch { handle = 2 }) with
              | Serve.Proto.Error _ -> ()
              | r ->
                  Alcotest.failf "expected Error, got %a" Serve.Proto.pp_reply r)))

(* --- degradation on the wire ------------------------------------------- *)

(* Build, over the wire, the classic bad-order function
   F = OR_i (x_i AND x_{8+i}) (|F| = 510 here) and the 16-variable parity
   G (|G| = 31).  Each build step allocates at most ~380 fresh nodes; the
   exact F AND G needs ~960.  A node budget of 600 therefore admits every
   build step but forces the final conjunction down the ladder, where
   HB-shrunk operands succeed — the reply must carry a Degraded
   certificate and a BDD below the exact answer. *)
let test_degraded_certificate_is_sound () =
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      limits = { Resil.Degrade.node_budget = Some 600; deadline = None };
    }
  in
  with_server cfg (fun t ->
      with_client t (fun c ->
          let lits = Array.init 16 (fun v -> Serve.Client.lit c v) in
          let build op = fst (Serve.Client.apply c op) in
          let f = ref (build (Serve.Proto.And (lits.(0), lits.(8)))) in
          for i = 1 to 7 do
            let p = build (Serve.Proto.And (lits.(i), lits.(8 + i))) in
            f := build (Serve.Proto.Or (!f, p))
          done;
          let g = ref lits.(0) in
          for v = 1 to 15 do
            g := build (Serve.Proto.Xor (!g, lits.(v)))
          done;
          let id, cert = Serve.Client.apply c (Serve.Proto.And (!f, !g)) in
          (match cert with
          | Serve.Proto.Degraded (_ :: _) -> ()
          | Serve.Proto.Degraded [] -> Alcotest.fail "empty degradation rungs"
          | Serve.Proto.Exact ->
              Alcotest.fail "budget did not bite: expected a Degraded reply");
          (* the oracle: same construction, no budgets *)
          let man = Bdd.create ~nvars:16 () in
          let exact_f =
            List.fold_left
              (fun acc i ->
                Bdd.bor man acc
                  (Bdd.band man (Bdd.ithvar man i) (Bdd.ithvar man (8 + i))))
              (Bdd.ff man) (List.init 8 Fun.id)
          in
          let exact_g =
            List.fold_left
              (fun acc v -> Bdd.bxor man acc (Bdd.ithvar man v))
              (Bdd.ff man) (List.init 16 Fun.id)
          in
          let exact = Bdd.band man exact_f exact_g in
          let got = fetch_into man c id in
          Alcotest.(check bool)
            "degraded result is an under-approximation of the exact answer"
            true (Bdd.leq man got exact);
          Alcotest.(check bool)
            "degraded result is not the exact answer" false
            (Bdd.equal got exact)))

(* --- deadline rescue ---------------------------------------------------- *)

(* The 24-variable cousin of the bad-order conjunction above: big enough
   that the exact And takes well over a millisecond, so a 1 ms
   per-request deadline must fire mid-operation.  The ladder catches
   Bdd.Deadline, shrinks the operands and re-arms the deadline per rung —
   the reply is either Degraded with a "deadline" rung (and a sound
   under-approximation) or, if even the smallest rung cannot finish, a
   typed Error.  Never a hang, never a wrong Exact. *)
let test_deadline_rescued_on_the_ladder () =
  let cfg = { Serve.Server.default_config with workers = 1 } in
  with_server cfg (fun t ->
      with_client t (fun c ->
          let lits = Array.init 24 (fun v -> Serve.Client.lit c v) in
          let build op = fst (Serve.Client.apply c op) in
          let f = ref (build (Serve.Proto.And (lits.(0), lits.(12)))) in
          for i = 1 to 11 do
            let p = build (Serve.Proto.And (lits.(i), lits.(12 + i))) in
            f := build (Serve.Proto.Or (!f, p))
          done;
          let g = ref lits.(0) in
          for v = 1 to 23 do
            g := build (Serve.Proto.Xor (!g, lits.(v)))
          done;
          (* only the final conjunction carries the deadline *)
          Serve.Client.post_meta c
            ~meta:{ Serve.Proto.deadline_ms = 1; token = 0 }
            (Serve.Proto.Apply (Serve.Proto.And (!f, !g)));
          match Serve.Client.receive c with
          | Serve.Proto.Handle { id; cert = Serve.Proto.Degraded rungs; _ } ->
              Alcotest.(check bool)
                "certificate names the deadline" true
                (List.mem "deadline" rungs);
              let man = Bdd.create ~nvars:24 () in
              let exact_f =
                List.fold_left
                  (fun acc i ->
                    Bdd.bor man acc
                      (Bdd.band man (Bdd.ithvar man i)
                         (Bdd.ithvar man (12 + i))))
                  (Bdd.ff man) (List.init 12 Fun.id)
              in
              let exact_g =
                List.fold_left
                  (fun acc v -> Bdd.bxor man acc (Bdd.ithvar man v))
                  (Bdd.ff man) (List.init 24 Fun.id)
              in
              let exact = Bdd.band man exact_f exact_g in
              let got = fetch_into man c id in
              Alcotest.(check bool)
                "deadline-rescued result is an under-approximation" true
                (Bdd.leq man got exact)
          | Serve.Proto.Handle { cert = Serve.Proto.Exact; _ } ->
              Alcotest.fail
                "a 1 ms deadline never fired on a multi-ms conjunction"
          | Serve.Proto.Error _ ->
              (* the ladder ran dry inside the deadline: acceptable on a
                 very slow machine — the contract is a typed reply *)
              ()
          | r -> Alcotest.failf "unexpected reply %a" Serve.Proto.pp_reply r))

(* --- Table_full on the ladder ------------------------------------------- *)

let test_table_full_is_degraded () =
  (* a hard unique-table capacity instead of a per-request node budget.
     Capacity is in table *slots*: with the ceiling at the initial 8192
     allocation, the first refused doubling — at 2/3 load, ~5460 nodes —
     raises Bdd.Table_full.  The 20-variable bad-order construction sits
     on each side of that line: the builds leave ~3450 live (pinned)
     nodes, the exact final conjunction needs ~7450.  Table_full must
     ride the same ladder and surface as a Degraded reply with a
     "table-full" rung, not as an Error or a dead server. *)
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      table_capacity = Some 8192;
    }
  in
  with_server cfg (fun t ->
      with_client t (fun c ->
          let lits = Array.init 20 (fun v -> Serve.Client.lit c v) in
          let build op = fst (Serve.Client.apply c op) in
          let f = ref (build (Serve.Proto.And (lits.(0), lits.(10)))) in
          for i = 1 to 9 do
            let p = build (Serve.Proto.And (lits.(i), lits.(10 + i))) in
            f := build (Serve.Proto.Or (!f, p))
          done;
          let g = ref lits.(0) in
          for v = 1 to 19 do
            g := build (Serve.Proto.Xor (!g, lits.(v)))
          done;
          let id, cert = Serve.Client.apply c (Serve.Proto.And (!f, !g)) in
          (match cert with
          | Serve.Proto.Degraded rungs ->
              Alcotest.(check bool)
                "certificate names the full table" true
                (List.mem "table-full" rungs)
          | Serve.Proto.Exact ->
              Alcotest.fail "capacity did not bite: expected a Degraded reply");
          let man = Bdd.create ~nvars:20 () in
          let exact_f =
            List.fold_left
              (fun acc i ->
                Bdd.bor man acc
                  (Bdd.band man (Bdd.ithvar man i) (Bdd.ithvar man (10 + i))))
              (Bdd.ff man) (List.init 10 Fun.id)
          in
          let exact_g =
            List.fold_left
              (fun acc v -> Bdd.bxor man acc (Bdd.ithvar man v))
              (Bdd.ff man) (List.init 20 Fun.id)
          in
          let exact = Bdd.band man exact_f exact_g in
          let got = fetch_into man c id in
          Alcotest.(check bool)
            "table-full result is an under-approximation" true
            (Bdd.leq man got exact)))

(* --- a budget a request cannot degrade under ---------------------------- *)

(* The bad-order F and parity G of the first ladder test, on an
   in-process session.  Under the same 600-node budget F XOR G cannot be
   rescued: XOR is not monotone, so the reply is a typed Error after the
   gc retry, never Degraded.  The same request without a budget then
   succeeds, so the failed walk left nothing armed.  A Put of a 2046-node
   BDD under that budget walks the same ladder: it is retried after a
   collection before it fails. *)
let test_not_degradable_is_an_error () =
  let session = Serve.Session.create ~id:0 () in
  let unlimited = Resil.Degrade.no_budget
  and budget = { Resil.Degrade.no_budget with node_budget = Some 600 } in
  let call limits req = Serve.Handler.handle limits session req in
  let handle req =
    match call unlimited req with
    | Serve.Proto.Handle { id; _ } -> id
    | r -> Alcotest.failf "expected a handle, got %a" Serve.Proto.pp_reply r
  in
  let exhausted what req =
    match call budget req with
    | Serve.Proto.Error m ->
        Alcotest.(check string)
          what "budget exhausted (request is not degradable)" m
    | r ->
        Alcotest.failf "%s: expected Error, got %a" what Serve.Proto.pp_reply
          r
  in
  let lits =
    Array.init 16 (fun v -> handle (Serve.Proto.Lit { var = v; phase = true }))
  in
  let apply op = handle (Serve.Proto.Apply op) in
  let f = ref (apply (Serve.Proto.And (lits.(0), lits.(8)))) in
  for i = 1 to 7 do
    let p = apply (Serve.Proto.And (lits.(i), lits.(8 + i))) in
    f := apply (Serve.Proto.Or (!f, p))
  done;
  let g = ref lits.(0) in
  for v = 1 to 15 do
    g := apply (Serve.Proto.Xor (!g, lits.(v)))
  done;
  let xor = Serve.Proto.Apply (Serve.Proto.Xor (!f, !g)) in
  exhausted "xor under the budget" xor;
  ignore (handle xor);
  (* a payload none of whose nodes the session holds *)
  let man = Bdd.create ~nvars:20 () in
  let big =
    List.fold_left
      (fun acc i ->
        Bdd.bor man acc
          (Bdd.band man (Bdd.ithvar man i) (Bdd.ithvar man (10 + i))))
      (Bdd.ff man) (List.init 10 Fun.id)
  in
  Alcotest.(check int) "payload size" 2046 (Bdd.size big);
  let gc_runs () =
    List.assoc "gc_runs" (Bdd.stats (Serve.Session.man session))
  in
  let before = gc_runs () in
  exhausted "put under the budget"
    (Serve.Proto.Put
       { bdd = Bdd.serialized_to_string (Bdd.export man big) });
  Alcotest.(check bool) "put was retried after a collection" true
    (gc_runs () > before)

(* --- durable sessions: attach, resume, dedup ---------------------------- *)

let bind_of t =
  match Serve.Server.address t with
  | Unix.ADDR_INET (_, port) -> Serve.Server.Tcp port
  | Unix.ADDR_UNIX path -> Serve.Server.Unix_path path

let test_attach_resume_preserves_handles () =
  with_server Serve.Server.default_config (fun t ->
      let bind = bind_of t in
      let c1 = Serve.Client.connect_retrying ~key:"durable" bind in
      let h =
        match
          Serve.Client.call_idem c1
            (Serve.Proto.Lit { var = 3; phase = true })
        with
        | Serve.Proto.Handle { id; _ } -> id
        | r -> Alcotest.failf "lit: unexpected %a" Serve.Proto.pp_reply r
      in
      Serve.Client.close c1;
      Alcotest.(check int) "the keyed session lingers" 1
        (Serve.Server.durable_sessions t);
      (* a brand-new client attaches to the same key and finds the handle *)
      let c2 = Serve.Client.connect_retrying ~key:"durable" bind in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c2)
        (fun () ->
          match Serve.Client.call_idem c2 (Serve.Proto.Fetch { handle = h }) with
          | Serve.Proto.Bdd_payload { bdd } ->
              let man = Bdd.create ~nvars:4 () in
              let f = Bdd.import man (Bdd.serialized_of_string bdd) in
              Alcotest.(check bool)
                "the resumed session still holds x3" true
                (Bdd.equal f (Bdd.ithvar man 3));
              Alcotest.(check bool)
                "the server counted a resume" true
                (Serve.Server.resumed_sessions t >= 1)
          | r -> Alcotest.failf "fetch: unexpected %a" Serve.Proto.pp_reply r))

let test_idempotency_token_dedups () =
  with_server Serve.Server.default_config (fun t ->
      with_client t (fun c ->
          let meta = { Serve.Proto.deadline_ms = 0; token = 987654321 } in
          let req = Serve.Proto.Lit { var = 5; phase = true } in
          Serve.Client.post_meta c ~meta req;
          let first = Serve.Client.receive c in
          let h1 =
            match first with
            | Serve.Proto.Handle { id; _ } -> id
            | r -> Alcotest.failf "lit: unexpected %a" Serve.Proto.pp_reply r
          in
          (* the retry of an already-executed request replays the recorded
             reply — byte-identically — instead of re-executing *)
          Serve.Client.post_meta c ~meta req;
          let second = Serve.Client.receive c in
          Alcotest.(check bool) "replayed reply is identical" true
            (first = second);
          Alcotest.(check int) "server counted the dedup" 1
            (Serve.Server.deduped t);
          (* the request body really ran once: the next fresh handle is
             h1 + 1, not h1 + 2 *)
          let h2 = Serve.Client.lit c 6 in
          Alcotest.(check int) "single execution consumed one handle id"
            (h1 + 1) h2))

let test_error_replies_are_not_deduped () =
  with_server Serve.Server.default_config (fun t ->
      with_client t (fun c ->
          let meta = { Serve.Proto.deadline_ms = 0; token = 424242777 } in
          let req = Serve.Proto.Fetch { handle = 31337 } in
          Serve.Client.post_meta c ~meta req;
          (match Serve.Client.receive c with
          | Serve.Proto.Error _ -> ()
          | r -> Alcotest.failf "expected Error, got %a" Serve.Proto.pp_reply r);
          (* a retry under the same token must re-execute — a transient
             failure must not be replayed from the dedup window as a
             sticky error for that logical request *)
          Serve.Client.post_meta c ~meta req;
          (match Serve.Client.receive c with
          | Serve.Proto.Error _ -> ()
          | r -> Alcotest.failf "expected Error, got %a" Serve.Proto.pp_reply r);
          Alcotest.(check int) "no dedup hit was recorded" 0
            (Serve.Server.deduped t)))

(* --- pipelining across Attach ------------------------------------------- *)

let test_pipelined_request_attach_binding () =
  (* a request queued before an Attach must execute against the session
     it was submitted under — the shard was chosen from that session's
     id, so re-reading the rebound connection at execution time would
     drive the new session from the old session's worker domain.  The
     worker is parked on a gate so the Lit is provably still queued when
     the Attach rebinds the connection. *)
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let release = ref false in
  let marker = 515151 in
  let on_dispatch = function
    | Serve.Proto.Fetch { handle } when handle = marker ->
        Mutex.lock gate_m;
        while not !release do
          Condition.wait gate_c gate_m
        done;
        Mutex.unlock gate_m
    | _ -> ()
  in
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      on_dispatch = Some on_dispatch;
    }
  in
  with_server cfg (fun t ->
      with_client t (fun c ->
          Serve.Client.post c (Serve.Proto.Fetch { handle = marker });
          Serve.Client.post c (Serve.Proto.Lit { var = 9; phase = true });
          Serve.Client.post c (Serve.Proto.Attach { key = "rebound" });
          (* the reader answers the Attach inline while the worker is
             parked, so the first reply on the wire must be Attached —
             receiving it proves the rebind happened with the Lit still
             queued *)
          (match Serve.Client.receive c with
          | Serve.Proto.Attached { handles; _ } ->
              Alcotest.(check int) "the fresh keyed session is empty" 0 handles
          | r -> Alcotest.failf "expected Attached, got %a" Serve.Proto.pp_reply r);
          Mutex.lock gate_m;
          release := true;
          Condition.broadcast gate_c;
          Mutex.unlock gate_m;
          (* parked marker answers first (unknown handle), then the Lit *)
          (match Serve.Client.receive c with
          | Serve.Proto.Error _ -> ()
          | r -> Alcotest.failf "marker: expected Error, got %a" Serve.Proto.pp_reply r);
          let lit_handle =
            match Serve.Client.receive c with
            | Serve.Proto.Handle { id; _ } -> id
            | r -> Alcotest.failf "lit: expected Handle, got %a" Serve.Proto.pp_reply r
          in
          (* the Lit landed on the pre-attach anonymous session: the
             attached keyed session must NOT know the handle *)
          match Serve.Client.call c (Serve.Proto.Fetch { handle = lit_handle }) with
          | Serve.Proto.Error _ -> ()
          | r ->
              Alcotest.failf
                "pipelined Lit leaked into the attached session: %a"
                Serve.Proto.pp_reply r))

(* --- admission control -------------------------------------------------- *)

let test_queue_overflow_is_explicit () =
  (* one worker, queue depth 1.  The on_dispatch hook parks the worker on
     a gate while it holds the marker request, so the test controls
     exactly what is in flight: one request occupies the worker, one sits
     in the queue, and the next four MUST come back Overloaded — sent
     immediately by the reader thread, ahead of the queued replies. *)
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let entered = ref false in
  let release = ref false in
  let marker = 424242 in
  let on_dispatch = function
    | Serve.Proto.Fetch { handle } when handle = marker ->
        Mutex.lock gate_m;
        entered := true;
        Condition.broadcast gate_c;
        while not !release do
          Condition.wait gate_c gate_m
        done;
        Mutex.unlock gate_m
    | _ -> ()
  in
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      queue_depth = 1;
      on_dispatch = Some on_dispatch;
    }
  in
  with_server cfg (fun t ->
      with_client t (fun c ->
          Serve.Client.post c (Serve.Proto.Fetch { handle = marker });
          Mutex.lock gate_m;
          while not !entered do
            Condition.wait gate_c gate_m
          done;
          Mutex.unlock gate_m;
          (* worker parked: one Stats fills the queue, four more overflow *)
          for _ = 1 to 5 do
            Serve.Client.post c Serve.Proto.Stats
          done;
          (* the four rejections arrive first — the worker is still parked,
             so nothing else can possibly reply *)
          for i = 1 to 4 do
            match Serve.Client.receive c with
            | Serve.Proto.Overloaded -> ()
            | r ->
                Alcotest.failf "rejection %d: expected Overloaded, got %a" i
                  Serve.Proto.pp_reply r
          done;
          Mutex.lock gate_m;
          release := true;
          Condition.broadcast gate_c;
          Mutex.unlock gate_m;
          (* now the parked marker request answers (unknown handle), then
             the one queued Stats *)
          (match Serve.Client.receive c with
          | Serve.Proto.Error _ -> ()
          | r -> Alcotest.failf "marker: expected Error, got %a" Serve.Proto.pp_reply r);
          (match Serve.Client.receive c with
          | Serve.Proto.Stats_are _ -> ()
          | r ->
              Alcotest.failf "queued request: expected Stats_are, got %a"
                Serve.Proto.pp_reply r);
          Alcotest.(check int) "server counted 4 rejections" 4
            (Serve.Server.rejected t)))

(* --- pipelined batches --------------------------------------------------- *)

let nm r = (Serve.Proto.no_meta, r)

let test_batch_replies_byte_identical () =
  (* the same deterministic request sequence, once as singletons and once
     as a single batch frame, from two fresh sessions: the reply frames
     must match byte for byte — pipelining changes framing on the way in,
     nothing on the way out *)
  let reqs =
    [
      Serve.Proto.Lit { var = 0; phase = true };
      Serve.Proto.Lit { var = 1; phase = false };
      Serve.Proto.Apply (Serve.Proto.And (1, 2));
      Serve.Proto.Count { handle = 3; nvars = 2 };
      Serve.Proto.Fetch { handle = 3 };
      Serve.Proto.Fetch { handle = 999 } (* an Error rides in order too *);
    ]
  in
  with_server Serve.Server.default_config (fun t ->
      let singleton_frames =
        with_client t (fun c ->
            List.map
              (fun r ->
                Serve.Client.post c r;
                Serve.Client.receive_frame c)
              reqs)
      in
      let batched_frames =
        with_client t (fun c ->
            Serve.Client.post_batch c (List.map nm reqs);
            List.map (fun _ -> Serve.Client.receive_frame c) reqs)
      in
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check string)
            (Printf.sprintf "reply %d is byte-identical" i)
            a b)
        (List.combine singleton_frames batched_frames);
      Alcotest.(check int) "the server counted one batch" 1
        (Serve.Server.batches t))

let test_batch_order_and_call_batch () =
  with_server Serve.Server.default_config (fun t ->
      with_client t (fun c ->
          let replies =
            Serve.Client.call_batch c
              (List.map nm
                 [
                   Serve.Proto.Ping;
                   Serve.Proto.Lit { var = 4; phase = true };
                   Serve.Proto.Apply (Serve.Proto.Not 1);
                 ])
          in
          match replies with
          | [ Serve.Proto.Pong; Serve.Proto.Handle { id = 1; _ };
              Serve.Proto.Handle { id = 2; _ } ] ->
              ()
          | rs ->
              Alcotest.failf "replies out of order: %s"
                (String.concat "; "
                   (List.map
                      (Format.asprintf "%a" Serve.Proto.pp_reply)
                      rs))))

let test_batch_overflow_n_overloaded () =
  (* a refused batch of N answers N Overloaded frames — one reply per
     request holds even when admission control sheds the whole envelope.
     The worker is parked on the marker and a singleton fills the
     depth-1 queue, so the batch deterministically overflows. *)
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let entered = ref false in
  let release = ref false in
  let marker = 616161 in
  let on_dispatch = function
    | Serve.Proto.Fetch { handle } when handle = marker ->
        Mutex.lock gate_m;
        entered := true;
        Condition.broadcast gate_c;
        while not !release do
          Condition.wait gate_c gate_m
        done;
        Mutex.unlock gate_m
    | _ -> ()
  in
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      queue_depth = 1;
      on_dispatch = Some on_dispatch;
    }
  in
  with_server cfg (fun t ->
      with_client t (fun c ->
          Serve.Client.post c (Serve.Proto.Fetch { handle = marker });
          Mutex.lock gate_m;
          while not !entered do
            Condition.wait gate_c gate_m
          done;
          Mutex.unlock gate_m;
          (* worker parked; this singleton fills the queue *)
          Serve.Client.post c Serve.Proto.Stats;
          let batch =
            List.map nm
              [ Serve.Proto.Stats; Serve.Proto.Stats; Serve.Proto.Stats ]
          in
          let replies = Serve.Client.call_batch c batch in
          List.iteri
            (fun i r ->
              match r with
              | Serve.Proto.Overloaded -> ()
              | r ->
                  Alcotest.failf "batch reply %d: expected Overloaded, got %a"
                    i Serve.Proto.pp_reply r)
            replies;
          Alcotest.(check int) "exactly N rejections" 3 (List.length replies);
          Mutex.lock gate_m;
          release := true;
          Condition.broadcast gate_c;
          Mutex.unlock gate_m;
          (match Serve.Client.receive c with
          | Serve.Proto.Error _ -> ()
          | r -> Alcotest.failf "marker: expected Error, got %a" Serve.Proto.pp_reply r);
          (match Serve.Client.receive c with
          | Serve.Proto.Stats_are _ -> ()
          | r ->
              Alcotest.failf "queued request: expected Stats_are, got %a"
                Serve.Proto.pp_reply r);
          Alcotest.(check int) "server counted the batch's rejections" 3
            (Serve.Server.rejected t)))

(* --- the shared arena over the wire -------------------------------------- *)

let arena_stat t key =
  match Serve.Server.arena t with
  | None -> Alcotest.fail "arena mode is on but Server.arena is None"
  | Some a -> (
      match List.assoc_opt key (Arena.stats a) with
      | Some v -> v
      | None -> Alcotest.failf "arena stats is missing %s" key)

let test_arena_compile_shared_zero_reimports () =
  (* the acceptance demo: one session compiles a model, N later sessions
     attach to the very same arena segments — published count frozen,
     every later compile served from the catalog (zero re-imports) *)
  let cfg = { Serve.Server.default_config with arena = true } in
  with_server cfg (fun t ->
      let blif = Blif.to_string (Generate.counter ~bits:4) in
      let first =
        with_client t (fun c -> Serve.Client.compile c ~name:"ctr" ~blif)
      in
      Alcotest.(check bool) "compile produced handles" true (first <> []);
      let published = arena_stat t "arena.published" in
      Alcotest.(check bool) "the model was published as segments" true
        (published >= 1 && published <= List.length first);
      let hits0 = arena_stat t "arena.hits" in
      let later =
        List.init 3 (fun _ ->
            with_client t (fun c -> Serve.Client.compile c ~name:"ctr" ~blif))
      in
      List.iter
        (fun handles ->
          Alcotest.(check int) "same outputs from the catalog"
            (List.length first) (List.length handles);
          List.iter2
            (fun (n1, _, s1) (n2, _, s2) ->
              Alcotest.(check string) "same output name" n1 n2;
              Alcotest.(check int) "same node count (same segment)" s1 s2)
            first handles)
        later;
      Alcotest.(check int) "zero re-imports: published count is frozen"
        published
        (arena_stat t "arena.published");
      Alcotest.(check bool) "every later compile hit the catalog" true
        (arena_stat t "arena.hits" - hits0 >= 3 * List.length first);
      (* the arena answer is still correct: reach the model from a
         catalog-served session and check the exact state count *)
      with_client t (fun c ->
          ignore (Serve.Client.compile c ~name:"ctr" ~blif);
          match
            Serve.Client.call c (Serve.Proto.Reach { model = "ctr"; max_iter = 0 })
          with
          | Serve.Proto.Reach_done { states; cert = Serve.Proto.Exact; _ } ->
              Alcotest.(check (float 0.0)) "16 states" 16.0 states
          | r -> Alcotest.failf "expected Reach_done, got %a" Serve.Proto.pp_reply r))

let test_arena_put_dedups_across_sessions () =
  let cfg = { Serve.Server.default_config with arena = true } in
  with_server cfg (fun t ->
      let man = Bdd.create ~nvars:4 () in
      let payload =
        Bdd.serialized_to_string
          (Bdd.export man (Bdd.band man (Bdd.ithvar man 0) (Bdd.ithvar man 3)))
      in
      with_client t (fun c1 ->
          with_client t (fun c2 ->
              ignore (Serve.Client.put c1 payload);
              ignore (Serve.Client.put c2 payload);
              Alcotest.(check int) "one segment for identical payloads" 1
                (arena_stat t "arena.published");
              Alcotest.(check bool) "the second put was a dedup hit" true
                (arena_stat t "arena.hits" >= 1);
              (* a corrupt payload is still a clean typed error *)
              match Serve.Client.call c1 (Serve.Proto.Put { bdd = "garbage" }) with
              | Serve.Proto.Error _ -> ()
              | r -> Alcotest.failf "expected Error, got %a" Serve.Proto.pp_reply r)))

(* --- compile + reach ---------------------------------------------------- *)

let test_compile_reach_counter () =
  with_server Serve.Server.default_config (fun t ->
      with_client t (fun c ->
          let blif = Blif.to_string (Generate.counter ~bits:4) in
          let handles = Serve.Client.compile c ~name:"ctr" ~blif in
          Alcotest.(check bool) "compile produced handles" true (handles <> []);
          match
            Serve.Client.call c (Serve.Proto.Reach { model = "ctr"; max_iter = 0 })
          with
          | Serve.Proto.Reach_done { states; cert = Serve.Proto.Exact; reached; _ }
            ->
              Alcotest.(check (float 0.0)) "4-bit counter: 16 states" 16.0 states;
              (* the reached set came back as a session handle *)
              let man = Bdd.create () in
              let r = fetch_into man c reached in
              Alcotest.(check bool) "reached set is non-trivial" false
                (Bdd.equal r (Bdd.ff man))
          | r -> Alcotest.failf "expected exact Reach_done, got %a" Serve.Proto.pp_reply r))

(* --- ping and drain ----------------------------------------------------- *)

let test_ping_and_graceful_drain () =
  let t = Serve.Server.start { Serve.Server.default_config with bind = Serve.Server.Tcp 0 } in
  let c = connect t in
  Serve.Client.ping c;
  ignore (Serve.Client.lit c 0 ~phase:true);
  Alcotest.(check int) "one session" 1 (Serve.Server.sessions t);
  Serve.Server.drain t;
  (* the draining server hung up on the client *)
  (match Serve.Client.call c Serve.Proto.Ping with
  | exception (End_of_file | Serve.Proto.Bad_frame _ | Unix.Unix_error _) -> ()
  | r -> Alcotest.failf "after drain: expected EOF, got %a" Serve.Proto.pp_reply r);
  Serve.Client.close c;
  (* drain is idempotent *)
  Serve.Server.drain t;
  Alcotest.(check int) "no sessions after drain" 0 (Serve.Server.sessions t)

(* --- the event loop against a direct call --------------------------------- *)

(* The server is Handler.handle behind the event loop: a seeded sequence
   of requests sent over one connection must draw the same reply frames,
   byte for byte, as the same sequence fed to Handler.handle on an
   in-process session.  Unknown and freed handles ride along, so Error
   replies are compared too.  Stats stays out: it carries server
   counters. *)
let test_direct_call_oracle () =
  let nvars = 8 in
  let rng = Random.State.make [| 2024 |] in
  let int n = Random.State.int rng n and bool () = Random.State.bool rng in
  let local = Serve.Session.create ~id:0 () in
  let live = ref [] in
  let handle () =
    match !live with
    | _ when int 20 = 0 -> 1000 + int 50 (* never handed out *)
    | [] -> 1
    | hs -> List.nth hs (int (List.length hs))
  in
  let vars () = List.filter (fun _ -> int 3 = 0) (List.init nvars Fun.id) in
  let request () =
    let open Serve.Proto in
    match int 12 with
    | 0 | 1 | 2 -> Lit { var = int nvars; phase = bool () }
    | 3 -> Apply (Not (handle ()))
    | 4 -> (
        let a = handle () and b = handle () in
        match int 3 with
        | 0 -> Apply (And (a, b))
        | 1 -> Apply (Or (a, b))
        | _ -> Apply (Xor (a, b)))
    | 5 ->
        let a = handle () and b = handle () in
        Apply (Ite (a, b, handle ()))
    | 6 ->
        let vs = vars () in
        let a = handle () in
        if bool () then Apply (Exists (vs, a)) else Apply (Forall (vs, a))
    | 7 -> Count { handle = handle (); nvars }
    | 8 -> Sat { handle = handle () }
    | 9 ->
        let methods = Approx.all_methods in
        let meth = List.nth methods (int (List.length methods)) in
        Approx { meth; threshold = int 12; handle = handle () }
    | 10 -> Decomp { handle = handle (); disjunctive = bool () }
    | _ ->
        let h = handle () in
        live := List.filter (( <> ) h) !live;
        Free { handles = [ h ] }
  in
  with_server Serve.Server.default_config (fun t ->
      with_client t (fun c ->
          for i = 1 to 400 do
            let req = request () in
            let reply =
              Serve.Handler.handle Resil.Degrade.no_budget local req
            in
            Serve.Client.post c req;
            Alcotest.(check string)
              (Format.asprintf "request %d: %a" i Serve.Proto.pp_request req)
              (Serve.Proto.encode_reply reply)
              (Serve.Client.receive_frame c);
            match reply with
            | Serve.Proto.Handle { id; _ } -> live := id :: !live
            | Serve.Proto.Pair { g; h; _ } -> live := g :: h :: !live
            | _ -> ()
          done))

let tests =
  ( "serve",
    [
      Alcotest.test_case "handle namespaces are per-session" `Quick
        test_session_isolation;
      Alcotest.test_case "Degraded certificates are sound under-approximations"
        `Quick test_degraded_certificate_is_sound;
      Alcotest.test_case "a blown deadline is rescued on the ladder" `Quick
        test_deadline_rescued_on_the_ladder;
      Alcotest.test_case "Table_full degrades instead of erroring" `Quick
        test_table_full_is_degraded;
      Alcotest.test_case "a non-degradable request under budget is an Error"
        `Quick test_not_degradable_is_an_error;
      Alcotest.test_case "attach resumes a durable session's handles" `Quick
        test_attach_resume_preserves_handles;
      Alcotest.test_case "idempotency tokens dedup to exactly-once" `Quick
        test_idempotency_token_dedups;
      Alcotest.test_case "error replies are never dedup-replayed" `Quick
        test_error_replies_are_not_deduped;
      Alcotest.test_case "a pipelined request stays on its submit-time session"
        `Quick test_pipelined_request_attach_binding;
      Alcotest.test_case "queue overflow answers Overloaded, never hangs" `Quick
        test_queue_overflow_is_explicit;
      Alcotest.test_case "pipelined batch replies are byte-identical" `Quick
        test_batch_replies_byte_identical;
      Alcotest.test_case "call_batch streams replies in request order" `Quick
        test_batch_order_and_call_batch;
      Alcotest.test_case "a refused batch answers N Overloaded frames" `Quick
        test_batch_overflow_n_overloaded;
      Alcotest.test_case "arena compile: one segment set, zero re-imports"
        `Quick test_arena_compile_shared_zero_reimports;
      Alcotest.test_case "arena put dedups identical payloads across sessions"
        `Quick test_arena_put_dedups_across_sessions;
      Alcotest.test_case "compile + reach a 4-bit counter exactly" `Quick
        test_compile_reach_counter;
      Alcotest.test_case "ping and graceful, idempotent drain" `Quick
        test_ping_and_graceful_drain;
      Alcotest.test_case "the server's reply frames = Handler.handle's"
        `Quick test_direct_call_oracle;
    ] )
