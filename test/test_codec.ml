(* The binary formats' shared codec.

   - Byte goldens: the digests below were recorded from the encoders
     before the formats moved onto one codec, so they pin every format's
     bytes — BDD1, DDC1 in all four modes, the BDC2 trailer, RCP1, BSJ1
     and the wire — and keep old clients, journals and checkpoints
     readable.
   - The varint contract: every non-negative int round-trips, and the
     reader rejects what the writer cannot emit (a ninth byte above
     0x3f, a tenth byte) through the exception its format passes in.
   - One corruption property over all six decoders: truncation, a bit
     flip, and a negative nine-byte varint spliced in behind a valid
     checksum either decode or raise the format's typed exception. *)

module P = Serve.Proto

let hex_digest s = Digest.to_hex (Digest.string s)

(* nine bytes whose ninth sets bit 62: the sign bit of an OCaml int *)
let neg9 = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

(* --- fixed inputs ------------------------------------------------------ *)

(* 140 variables under a reversed order: indices and levels of 128 and
   up take two varint bytes *)
let nvars = 140

let fixed_bdd () =
  let man = Bdd.create ~nvars () in
  let reversed = Array.init nvars (fun i -> nvars - 1 - i) in
  ignore (Bdd.reorder man ~order:reversed ~roots:[]);
  let v = Bdd.ithvar man in
  let f =
    Bdd.disj man
      [
        Bdd.band man (v 0) (v 1);
        Bdd.bxor man (v 130) (v 139);
        Bdd.band man (Bdd.nithvar man 7) (v 64);
      ]
  in
  (man, f)

let bdd1 () =
  let man, f = fixed_bdd () in
  Bdd.serialized_to_string (Bdd.export man f)

let ddc1 mode =
  let man, f = fixed_bdd () in
  let dman = Dd.create ~nvars ~mode () in
  Dd.serialized_to_string (Dd.export dman (Dd.of_bdd dman man f))

let file_bytes write =
  let path = Filename.temp_file "codec" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write path;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let checkpoint () =
  let man, f = fixed_bdd () in
  file_bytes (fun path -> Resil.Checkpoint.save path (Bdd.export man f))

let rcp1 () =
  let man, f = fixed_bdd () in
  let payload = Bdd.export_list man [ f; Bdd.bnot man f ] in
  file_bytes (fun path ->
      Resil.Checkpoint.save_reach path
        { Resil.Checkpoint.iterations = 300; images = 70_000; payload })

let blif =
  ".model m\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n"

(* every entry kind and every op *)
let journal_entries () =
  let open Serve.Session in
  [
    J_lit { handle = 1; var = 0; phase = true };
    J_lit { handle = 200; var = 139; phase = false };
    J_op { handle = 3; op = P.Not 1 };
    J_op { handle = 4; op = P.And (1, 200) };
    J_op { handle = 5; op = P.Or (3, 4) };
    J_op { handle = 6; op = P.Xor (4, 5) };
    J_op { handle = 7; op = P.Ite (1, 5, 6) };
    J_op { handle = 8; op = P.Exists ([ 0; 130 ], 7) };
    J_op { handle = 9; op = P.Forall ([ 7 ], 8) };
    J_bytes { handle = 300; bdd = bdd1 () };
    J_compile { name = "m"; blif; handles = [ 400; 70_000 ] };
    J_model { name = "m2"; blif };
    J_free [ 2; 70_000 ];
  ]

let requests () =
  P.
    [
      Ping;
      Lit { var = 130; phase = true };
      Lit { var = 0; phase = false };
      Put { bdd = bdd1 () };
      Fetch { handle = 300 };
      Apply (Not 1);
      Apply (And (1, 200));
      Apply (Or (3, 4));
      Apply (Xor (4, 5));
      Apply (Ite (1, 5, 6));
      Apply (Exists ([ 0; 130 ], 7));
      Apply (Forall ([ 7 ], 8));
      Compile { name = "m"; blif };
      Approx { meth = Approx.RUA; threshold = 500; handle = 4 };
      Decomp { handle = 4; disjunctive = true };
      Reach { model = "m"; max_iter = 0 };
      Count { handle = 4; nvars };
      Sat { handle = 4 };
      Free { handles = [ 1; 200 ] };
      Stats;
      Attach { key = "durable-key" };
    ]

let meta = { P.deadline_ms = 250; token = 1_000_003 }

let replies () =
  P.
    [
      Pong;
      Handle { id = 5; size = 300; cert = Exact };
      Handle { id = 6; size = 1; cert = Degraded [ "gc"; "HB@512" ] };
      Bdd_payload { bdd = bdd1 () };
      Handles [ ("o1", 1, 12); ("o2", 200, 70_000) ];
      Pair { g = 1; g_size = 2; h = 3; h_size = 400; shared = 1 };
      Reach_done
        {
          states = 1024.;
          iterations = 12;
          images = 13;
          reached = 9;
          reached_size = 150;
          cert = Degraded [ "deadline" ];
        };
      Count_is 3.5e12;
      Sat_is None;
      Sat_is (Some [ (0, true); (130, false) ]);
      Stats_are
        [ ("zero", 0); ("neg", -5); ("big", 1 lsl 40); ("small", -(1 lsl 40)) ];
      Freed 3;
      Error "no such handle";
      Overloaded;
      Attached { session = 7; resumed = true; handles = 130 };
    ]

let encodings () =
  let indexed prefix l =
    List.mapi (fun i x -> (Printf.sprintf "%s %d" prefix i, x)) l
  in
  [ ("BDD1", bdd1 ()) ]
  @ List.map (fun m -> ("DDC1 " ^ Dd.mode_name m, ddc1 m)) Dd.all_modes
  @ [
      ("BDD1+BDC2 checkpoint", checkpoint ());
      ("RCP1+BDC2 checkpoint", rcp1 ());
      ("BSJ1 journal", Serve.Session.journal_to_string (journal_entries ()));
    ]
  @ indexed "request" (List.map (fun r -> P.encode_request r) (requests ()))
  @ indexed "request+meta"
      (List.map (fun r -> P.encode_request ~meta r) (requests ()))
  @ [
      ( "batch",
        P.encode_batch
          (List.mapi (fun i r -> ((if i mod 2 = 0 then P.no_meta else meta), r))
             (requests ())) );
    ]
  @ indexed "reply" (List.map P.encode_reply (replies ()))

(* recorded from the encoders before the port; never re-record them to
   make a change pass *)
let expected =
  [
    ("BDD1", "23d10daa214b02e5d953aa9e05dfc60e");
    ("DDC1 bdd", "041f8b4b00f6f15f667b08139b798042");
    ("DDC1 zdd", "b35b33f0f244ad97c2a6ccd1516c9559");
    ("DDC1 cbdd", "cfd190b970389b56db8e614a4121895d");
    ("DDC1 czdd", "f91f55824482c58eebd18a42e71a1840");
    ("BDD1+BDC2 checkpoint", "c153a5cb5cbf208e91d7082cee3b1ab7");
    ("RCP1+BDC2 checkpoint", "c710e096c2e4a72751f14ecb48e5e941");
    ("BSJ1 journal", "8de86fd70d395a42b86e5932495a0e40");
    ("request 0", "4d0f0c4ebe5f3e62339ca444580797b2");
    ("request 1", "9fa96d9b98c17940f82cef47f215efcb");
    ("request 2", "e320e81b9b368e06317154f46095b55c");
    ("request 3", "3d793cd14d42b803288c5e8c36c4a205");
    ("request 4", "885b5bcc14e0c144540ed77bc1846e93");
    ("request 5", "764d314a901cb6ef21050f13255fbab9");
    ("request 6", "c4fd87377ed27ecfedbc4e25838534f6");
    ("request 7", "02523a7bad6af31be0a6d46e2687319d");
    ("request 8", "f1a3c434367b29a8e0ee6dee24a30a6a");
    ("request 9", "79551d2001f0e128cb282f3da0e5ca9c");
    ("request 10", "88101faeb0588d3ac22c41a6e2c62f67");
    ("request 11", "ce1390bf6ab68c55ec6b179d02ad911f");
    ("request 12", "438f9a4d4c899521ee8eccbd88bc0f2a");
    ("request 13", "8fe3f95b59156a7ae58add43d343a672");
    ("request 14", "497b8aebfd81988bf8d40e327e615670");
    ("request 15", "46583e108990f8075d3676b5ea02f85a");
    ("request 16", "3a4028335f8d14584ba0e3ae0536648b");
    ("request 17", "d782c5b3fdd7d536570a536991345545");
    ("request 18", "2724c8f6cd0c01f0eabca8b2b60721f8");
    ("request 19", "572bb253974980b1a65bea1c404ddf57");
    ("request 20", "226bad8635a9db4cc1078752f8e79cbd");
    ("request+meta 0", "b9358d981ce1569c8332026c136c9c85");
    ("request+meta 1", "c2b5ef210d96c9d7d2ef96284ef47788");
    ("request+meta 2", "6cadce6bcc3faacdf3368d0993a2edfe");
    ("request+meta 3", "2b1389b24cf3a011e30e03e50c5e98e3");
    ("request+meta 4", "d98afdd42939c55d27b759a22d43fe8c");
    ("request+meta 5", "1d978bac421f33f228b618ff49b036ce");
    ("request+meta 6", "e4642f77a02acd26899de368dcbef0d6");
    ("request+meta 7", "ad943b3d8ff3c72b6d4afc790ad0e489");
    ("request+meta 8", "1143a5523ae0f4c73cb82317b497f9ca");
    ("request+meta 9", "362b92fe4f96cee03002f4c06577e580");
    ("request+meta 10", "1f10567981eb6538772461922cab6a68");
    ("request+meta 11", "c324d1302336a7501985176a3f8953fb");
    ("request+meta 12", "bcd5e249c0e4071114f5c67a6005a26e");
    ("request+meta 13", "01c877e38a6d8442b9faeb3eb1c01e29");
    ("request+meta 14", "69c8ffe5c8f5eda6cbf9fc7d47e40858");
    ("request+meta 15", "1c3a007415430f79b60dfddbef0ca35f");
    ("request+meta 16", "3a80ddb707404ead95e77c43e1f95a98");
    ("request+meta 17", "0c198ff8ea65d20a0458838b8277e908");
    ("request+meta 18", "14688196cfc12261742716666541108e");
    ("request+meta 19", "3d9a93e969d98f5ce218e1f59d003408");
    ("request+meta 20", "4393c82f0e3bb80c0879f614cb354429");
    ("batch", "d043b14ed7bad271a59e5bc06399957e");
    ("reply 0", "4d0f0c4ebe5f3e62339ca444580797b2");
    ("reply 1", "a5a4217a5d40892aca17a084e3c6e3ec");
    ("reply 2", "95ac053ab35c501d7b91cfa32aab5520");
    ("reply 3", "3d793cd14d42b803288c5e8c36c4a205");
    ("reply 4", "d860285b78715b5bd74915c4523cf5f4");
    ("reply 5", "bf6bfb71eb2deb99ee5739c43986e7b0");
    ("reply 6", "6b921973c8d9f220661ad2ad1b73a615");
    ("reply 7", "80409095f76650d33d374273c4a860bc");
    ("reply 8", "cf3ece72e39938e11ab4a9cf9f73cf43");
    ("reply 9", "011315740bfd4d6da96ba06011e787c4");
    ("reply 10", "fa07e3bf74be0d8733f468b52804c287");
    ("reply 11", "b43417008bd0cd761de57ef9366500c5");
    ("reply 12", "e5eac9e08c7525550f0d3aebc22aa7c6");
    ("reply 13", "97058a5670a63eb520fdbcff80d48294");
    ("reply 14", "fb48ff7737243e5e0325002f08bec385");
  ]

let test_goldens () =
  let actual = encodings () in
  Alcotest.(check int)
    "golden count" (List.length expected) (List.length actual);
  List.iter2
    (fun (name, bytes) (name', digest) ->
      Alcotest.(check string) "golden name" name' name;
      Alcotest.(check string) name digest (hex_digest bytes))
    actual expected

(* --- the varint contract ------------------------------------------------ *)

exception Bad of string

let reader s = Codec.reader s ~fail:(fun m -> Bad m)

let encode n =
  let buf = Buffer.create 9 in
  Codec.add_varint buf n;
  Buffer.contents buf

let read_back n =
  let r = reader (encode n) in
  let v = Codec.varint r in
  Codec.finish r;
  v

let test_varint_boundaries () =
  let boundaries =
    List.concat_map
      (fun k ->
        let p = 1 lsl (7 * k) in
        [ p - 1; p; p + 1 ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (read_back n))
    ([ 0; 1; max_int - 1; max_int ] @ boundaries);
  Alcotest.(check int)
    "max_int takes nine bytes" 9
    (String.length (encode max_int));
  Alcotest.(check int) "2^56 - 1 takes eight" 8
    (String.length (encode ((1 lsl 56) - 1)))

let prop_varint_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000
       ~name:"varint (add_varint n) = n on [0, max_int]"
       QCheck.(map (fun n -> n land max_int) int)
       (fun n -> read_back n = n))

let test_negative_rejected () =
  List.iter
    (fun n ->
      match encode n with
      | _ -> Alcotest.failf "add_varint %d encoded" n
      | exception Invalid_argument _ -> ())
    [ -1; min_int; -(1 lsl 40) ]

let rejects name s =
  match Codec.varint (reader s) with
  | v -> Alcotest.failf "%s read as %d" name v
  | exception Bad _ -> ()

let test_ninth_byte () =
  let eight = String.make 8 '\xff' in
  Alcotest.(check int) "ninth byte 0x3f is max_int" max_int
    (Codec.varint (reader (eight ^ "\x3f")));
  for b = 0x40 to 0xff do
    rejects
      (Printf.sprintf "ninth byte %02x" b)
      (eight ^ String.make 1 (Char.chr b))
  done;
  rejects "the negative nine-byte varint" neg9;
  rejects "a ten-byte varint" (String.make 9 '\x80' ^ "\x00");
  rejects "a ten-byte varint of ones" (String.make 9 '\xff' ^ "\x01");
  rejects "a truncated varint" "\x80\x80"

let test_counts_checked () =
  (* a count is checked against the bytes left before anything is
     allocated; a string or list may not announce more than remains *)
  let r = reader "\x03abc" in
  Alcotest.(check string) "str" "abc" (Codec.str r);
  (match Codec.count (reader "\x02xxxxx") ~min_bytes:3 with
  | n -> Alcotest.failf "count of 2 three-byte items in 5 bytes read as %d" n
  | exception Bad _ -> ());
  Alcotest.(check int) "count that fits" 2
    (Codec.count (reader "\x02xxxxxx") ~min_bytes:3);
  (match Codec.str (reader "\x04abc") with
  | s -> Alcotest.failf "over-long string read as %S" s
  | exception Bad _ -> ());
  (match Codec.list (reader ("\xff\xff\x03" ^ "xy")) Codec.byte with
  | _ -> Alcotest.fail "a list longer than the input decoded"
  | exception Bad _ -> ());
  match Codec.bool (reader "\x02") with
  | b -> Alcotest.failf "boolean byte 2 read as %b" b
  | exception Bad _ -> ()

(* --- one corruption property over every decoder ------------------------- *)

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.to_string b

(* a wire frame around [body] with a valid length and checksum *)
let seal_frame body =
  let head = "BSV1\001" ^ le32 (String.length body) ^ body in
  head ^ le32 (Resil.Checkpoint.crc32 head)

let frame_body frame = String.sub frame 9 (String.length frame - 13)

(* Each target is the bytes a varint reader walks (for a checksummed
   format, the checksummed payload) plus a decoder that seals damaged
   bytes with a valid checksum first, so the damage reaches the reader
   rather than the checksum. *)
type target = {
  name : string;
  body : string;
  decode : string -> unit;
  typed : exn -> bool;
}

let is_bdd_corrupt = function Bdd.Corrupt _ -> true | _ -> false
let is_bad_frame = function P.Bad_frame _ -> true | _ -> false

let rcp1_target () =
  let file = rcp1 () in
  let body = String.sub file 0 (String.length file - 16) in
  let decode body =
    let path = Filename.temp_file "codec" ".rcp" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Resil.Checkpoint.write_stream path (fun ~emit ->
            emit (Bytes.of_string body) 0 (String.length body));
        ignore (Resil.Checkpoint.load_reach path))
  in
  { name = "RCP1"; body; decode; typed = is_bdd_corrupt }

let targets =
  lazy
    (let journal = Serve.Session.journal_to_string (journal_entries ()) in
     let wire name decode frame =
       {
         name;
         body = frame_body frame;
         decode = (fun b -> ignore (decode (seal_frame b)));
         typed = is_bad_frame;
       }
     in
     [
       {
         name = "BDD1";
         body = bdd1 ();
         decode = (fun s -> ignore (Bdd.serialized_of_string s));
         typed = is_bdd_corrupt;
       };
       rcp1_target ();
       {
         name = "BSJ1";
         body = String.sub journal 0 (String.length journal - 4);
         decode =
           (fun b ->
             ignore
               (Serve.Session.journal_of_string
                  (b ^ le32 (Resil.Checkpoint.crc32 b))));
         typed = is_bdd_corrupt;
       };
     ]
     @ List.map
         (fun m ->
           {
             name = "DDC1 " ^ Dd.mode_name m;
             body = ddc1 m;
             decode = (fun s -> ignore (Dd.serialized_of_string s));
             typed = (function Dd.Corrupt _ -> true | _ -> false);
           })
         Dd.all_modes
     @ List.concat_map
         (fun r ->
           [
             wire "request" P.decode_envelope (P.encode_request r);
             wire "request+meta" P.decode_envelope (P.encode_request ~meta r);
           ])
         (requests ())
     @ [
         wire "batch" P.decode_envelope
           (P.encode_batch (List.map (fun r -> (meta, r)) (requests ())));
       ]
     @ List.map
         (fun r -> wire "reply" P.decode_reply (P.encode_reply r))
         (replies ()))

let damaged body ~flip ~splice =
  let len = String.length body in
  let flipped =
    let b = Bytes.of_string body in
    let i = flip / 8 mod len in
    let c = Char.code (Bytes.get b i) lxor (1 lsl (flip mod 8)) in
    Bytes.set b i (Char.chr c);
    Bytes.to_string b
  in
  let at = splice mod (len + 1) in
  List.init len (String.sub body 0)
  @ [ flipped; String.sub body 0 at ^ neg9 ^ String.sub body at (len - at) ]

let prop_typed_errors_only =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"truncation, a bit flip or a negative varint: typed errors only"
       QCheck.(triple small_nat (int_bound 1_000_000) (int_bound 1_000_000))
       (fun (which, flip, splice) ->
         let targets = Lazy.force targets in
         let t = List.nth targets (which mod List.length targets) in
         List.for_all
           (fun input ->
             match t.decode input with
             | () -> true
             | exception e when t.typed e -> true
             | exception e ->
                 QCheck.Test.fail_reportf "%s: %s" t.name
                   (Printexc.to_string e))
           (damaged t.body ~flip ~splice)))

let tests =
  ( "codec",
    [
      Alcotest.test_case "byte goldens" `Quick test_goldens;
      Alcotest.test_case "varint round trip at every 7-bit boundary" `Quick
        test_varint_boundaries;
      prop_varint_round_trip;
      Alcotest.test_case "add_varint rejects a negative" `Quick
        test_negative_rejected;
      Alcotest.test_case "a ninth byte above 0x3f or a tenth byte fails" `Quick
        test_ninth_byte;
      Alcotest.test_case "counts are checked against the bytes left" `Quick
        test_counts_checked;
      prop_typed_errors_only;
    ] )
