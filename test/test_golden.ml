(* Golden outputs of the paper's algorithms on a small fixed pool.

   Every method's result on every function of the pool is pinned by the
   digest of its serialized form (which depends on the BDD's shape, not on
   node uids), RUA's with its stats.  The digests were recorded before the
   algorithms' per-node state moved from hash tables to flat arrays; any
   change of visiting order, tie-break or replacement choice shows here as
   a changed digest. *)

let circuits () =
  [
    (Generate.shifter_datapath ~width:8, 200);
    (* the 5-bit multiplier's largest function has 170 nodes *)
    (Generate.multiplier ~bits:5, 100);
    (Generate.random_netlist ~inputs:16 ~gates:90 ~outputs:6 ~seed:7, 200);
    (Generate.random_netlist ~inputs:20 ~gates:140 ~outputs:6 ~seed:12, 200);
  ]

let digest man r = Bdd.serialized_digest (Bdd.export man r)

let pair_digest man { Decomp.g; h } =
  Bdd.serialized_digest (Bdd.export_list man [ g; h ])

let rua_key man (r, s) =
  Printf.sprintf "%s r%d m%d g%d z%d s%d w%h" (digest man r)
    s.Remap.replacements s.Remap.remaps s.Remap.grandchild s.Remap.zeroes
    s.Remap.estimated_size s.Remap.estimated_minterm_fraction

(* Every method's output on [f], keyed by method and setting, in a fixed
   call order. *)
let outputs man f =
  let rua = Remap.approximate_with_stats man f in
  let rua_size = Bdd.size (fst rua) in
  let rua3 q =
    Remap.approximate_with_stats man ~threshold:(Bdd.size f / 3) ~quality:q f
  in
  let ua w =
    Under_approx.approximate man
      ~params:{ Under_approx.threshold = 0; weight = w }
      f
  in
  [
    ("rua", rua_key man rua);
    ("rua.t3.q12", rua_key man (rua3 1.2));
    ("rua.t3.q08", rua_key man (rua3 0.8));
    ("ua.w03", digest man (ua 0.3));
    ("ua.w07", digest man (ua 0.7));
    ("hb.rua", digest man (Heavy_branch.approximate man ~threshold:rua_size f));
    ("hb.20", digest man (Heavy_branch.approximate man ~threshold:20 f));
    ("sp.rua", digest man (Short_paths.approximate man ~threshold:rua_size f));
    ("sp.20", digest man (Short_paths.approximate man ~threshold:20 f));
    ("c1", digest man (Compound.c1 man f));
    ("c2", digest man (Compound.c2 man f));
    ("cofactor", pair_digest man (Decomp.conj_cofactor man f));
    ("band", pair_digest man (Decomp_points.band man f));
    ("disjoint", pair_digest man (Decomp_points.disjoint man f));
  ]

let all () =
  List.concat_map
    (fun (c, min_nodes) ->
      List.map
        (fun e -> (e.Pool.label, outputs e.Pool.man e.Pool.f))
        (Pool.entries_of_circuit ~min_nodes c))
    (circuits ())

(* (function label, method and setting, expected digest) *)
let golden =
  [
    ("shiftacc8.acc.5'", "rua", "2fc1ed51f05222f3 r64 m64 g0 z0 s130 w0x1.4p-2");
    ("shiftacc8.acc.5'", "rua.t3.q12", "515202670579be9e r0 m0 g0 z0 s257 w0x1.cp-2");
    ("shiftacc8.acc.5'", "rua.t3.q08", "9ba7c0c82ec22ae5 r2 m0 g0 z2 s67 w0x1.cp-4");
    ("shiftacc8.acc.5'", "ua.w03", "1642367cbfdbd9bc");
    ("shiftacc8.acc.5'", "ua.w07", "0b27ce3eab2b1df2");
    ("shiftacc8.acc.5'", "hb.rua", "4d56d03eb75ddcb9");
    ("shiftacc8.acc.5'", "hb.20", "26a5506153fd2a76");
    ("shiftacc8.acc.5'", "sp.rua", "aecef78d03f0026b");
    ("shiftacc8.acc.5'", "sp.20", "29c3b360906afd6c");
    ("shiftacc8.acc.5'", "c1", "2fc1ed51f05222f3");
    ("shiftacc8.acc.5'", "c2", "29c3b360906afd6c");
    ("shiftacc8.acc.5'", "cofactor", "5f8161554787ca95");
    ("shiftacc8.acc.5'", "band", "15f86d3ffc429710");
    ("shiftacc8.acc.5'", "disjoint", "35b2bb5ec86454ad");
    ("shiftacc8.acc.6'", "rua", "f9c0453766f1660e r128 m112 g16 z0 s227 w0x1.3p-2");
    ("shiftacc8.acc.6'", "rua.t3.q12", "5370a72541561e0b r0 m0 g0 z0 s513 w0x1.cp-2");
    ("shiftacc8.acc.6'", "rua.t3.q08", "13c22ee4eabb8846 r2 m0 g0 z2 s131 w0x1.cp-4");
    ("shiftacc8.acc.6'", "ua.w03", "f7a94f9e2a140f42");
    ("shiftacc8.acc.6'", "ua.w07", "0b27ce3eab2b1df2");
    ("shiftacc8.acc.6'", "hb.rua", "e3ba78bee2eb9ec8");
    ("shiftacc8.acc.6'", "hb.20", "47c7b153a957398f");
    ("shiftacc8.acc.6'", "sp.rua", "c30c2dd6e3e0cb42");
    ("shiftacc8.acc.6'", "sp.20", "c30c2dd6e3e0cb42");
    ("shiftacc8.acc.6'", "c1", "f9c0453766f1660e");
    ("shiftacc8.acc.6'", "c2", "c30c2dd6e3e0cb42");
    ("shiftacc8.acc.6'", "cofactor", "893bfcd59226b644");
    ("shiftacc8.acc.6'", "band", "f3a76379a8b9942f");
    ("shiftacc8.acc.6'", "disjoint", "33e5541eace75de0");
    ("shiftacc8.acc.7'", "rua", "b262f865e095d282 r256 m256 g0 z0 s514 w0x1.4p-2");
    ("shiftacc8.acc.7'", "rua.t3.q12", "a429890f87bf0d62 r0 m0 g0 z0 s1025 w0x1.cp-2");
    ("shiftacc8.acc.7'", "rua.t3.q08", "2544aa6ec87cc24f r2 m0 g0 z2 s259 w0x1.cp-4");
    ("shiftacc8.acc.7'", "ua.w03", "1f947e322673a3b2");
    ("shiftacc8.acc.7'", "ua.w07", "0b27ce3eab2b1df2");
    ("shiftacc8.acc.7'", "hb.rua", "6bede2ce42ebfcad");
    ("shiftacc8.acc.7'", "hb.20", "d3429218880fd159");
    ("shiftacc8.acc.7'", "sp.rua", "99dcdb2ad683bee2");
    ("shiftacc8.acc.7'", "sp.20", "5c7f400a85a8a6f8");
    ("shiftacc8.acc.7'", "c1", "b262f865e095d282");
    ("shiftacc8.acc.7'", "c2", "5c7f400a85a8a6f8");
    ("shiftacc8.acc.7'", "cofactor", "cc8d54ff68213903");
    ("shiftacc8.acc.7'", "band", "14b1d007f4c90cd7");
    ("shiftacc8.acc.7'", "disjoint", "c68c448cb51014a6");
    ("mult5.p5", "rua", "2306650d1b099161 r4 m1 g0 z3 s47 w0x1.8p-3");
    ("mult5.p5", "rua.t3.q12", "b2a3573d7f0d28b1 r1 m0 g0 z1 s60 w0x1.ep-3");
    ("mult5.p5", "rua.t3.q08", "d610185c76a59c0d r2 m0 g0 z2 s36 w0x1.ep-4");
    ("mult5.p5", "ua.w03", "ae78507ea8273bdb");
    ("mult5.p5", "ua.w07", "df8bba19245bf6d6");
    ("mult5.p5", "hb.rua", "d610185c76a59c0d");
    ("mult5.p5", "hb.20", "aa474c5b38b0193e");
    ("mult5.p5", "sp.rua", "a9e4dc39b38e327d");
    ("mult5.p5", "sp.20", "0e29a3ffa010a486");
    ("mult5.p5", "c1", "2306650d1b099161");
    ("mult5.p5", "c2", "f854af457d373fa4");
    ("mult5.p5", "cofactor", "9ec7994e3246af32");
    ("mult5.p5", "band", "ee0c3db93c77acc8");
    ("mult5.p5", "disjoint", "b1fcc619bd63dbdc");
    ("mult5.p6", "rua", "47777f41c28d9d38 r15 m8 g1 z6 s114 w0x1.31p-2");
    ("mult5.p6", "rua.t3.q12", "6adf237d7b075480 r0 m0 g0 z0 s170 w0x1.a6p-2");
    ("mult5.p6", "rua.t3.q08", "f3ed191690ab2b61 r3 m0 g0 z3 s41 w0x1.cp-5");
    ("mult5.p6", "ua.w03", "ac3ab7985f6a249e");
    ("mult5.p6", "ua.w07", "df8bba19245bf6d6");
    ("mult5.p6", "hb.rua", "a5abf6d81d606d3b");
    ("mult5.p6", "hb.20", "18d98033794cc158");
    ("mult5.p6", "sp.rua", "c62d1d96ab8151a0");
    ("mult5.p6", "sp.20", "8fd53382db1f13f3");
    ("mult5.p6", "c1", "47777f41c28d9d38");
    ("mult5.p6", "c2", "3b8581f981b7be8f");
    ("mult5.p6", "cofactor", "3df8e9c860da32f3");
    ("mult5.p6", "band", "247e20e74cb58409");
    ("mult5.p6", "disjoint", "157929d3e0116924");
    ("mult5.p7", "rua", "8813afea5efbbe7e r9 m5 g0 z4 s117 w0x1.49p-2");
    ("mult5.p7", "rua.t3.q12", "e73693466866c29f r0 m0 g0 z0 s135 w0x1.6fp-2");
    ("mult5.p7", "rua.t3.q08", "24ca3497b1c73471 r6 m0 g0 z6 s38 w0x1.5p-5");
    ("mult5.p7", "ua.w03", "e73693466866c29f");
    ("mult5.p7", "ua.w07", "df8bba19245bf6d6");
    ("mult5.p7", "hb.rua", "b19b0c01e85934d3");
    ("mult5.p7", "hb.20", "1c166ebded655a67");
    ("mult5.p7", "sp.rua", "e73693466866c29f");
    ("mult5.p7", "sp.20", "e539f0e4581f60b9");
    ("mult5.p7", "c1", "8813afea5efbbe7e");
    ("mult5.p7", "c2", "8813afea5efbbe7e");
    ("mult5.p7", "cofactor", "20fe1de04553196a");
    ("mult5.p7", "band", "6a348029d78a9778");
    ("mult5.p7", "disjoint", "5d389b706738d9db");
    ("rand_i16_g90_s7.y2", "rua", "26d545723453b3fb r11 m3 g3 z5 s10 w0x1.2p-4");
    ("rand_i16_g90_s7.y2", "rua.t3.q12", "bcea20acc9613edc r0 m0 g0 z0 s1093 w0x1.3a62p-1");
    ("rand_i16_g90_s7.y2", "rua.t3.q08", "d8261942a5d26f0c r2 m0 g0 z2 s291 w0x1.30fp-3");
    ("rand_i16_g90_s7.y2", "ua.w03", "9726a57e9bc0da3d");
    ("rand_i16_g90_s7.y2", "ua.w07", "5c6a13a78c3cd6a5");
    ("rand_i16_g90_s7.y2", "hb.rua", "13c02e1d76f117c2");
    ("rand_i16_g90_s7.y2", "hb.20", "13c02e1d76f117c2");
    ("rand_i16_g90_s7.y2", "sp.rua", "02885605ba61ba12");
    ("rand_i16_g90_s7.y2", "sp.20", "02885605ba61ba12");
    ("rand_i16_g90_s7.y2", "c1", "26d545723453b3fb");
    ("rand_i16_g90_s7.y2", "c2", "f428b2cbd0344cf2");
    ("rand_i16_g90_s7.y2", "cofactor", "3055fd993a3cc501");
    ("rand_i16_g90_s7.y2", "band", "bdb83979b6d4443c");
    ("rand_i16_g90_s7.y2", "disjoint", "3055fd993a3cc501");
    ("rand_i16_g90_s7.y3", "rua", "815c99fa6c4ec745 r2 m0 g2 z0 s2 w0x1p-1");
    ("rand_i16_g90_s7.y3", "rua.t3.q12", "815c99fa6c4ec745 r2 m0 g2 z0 s2 w0x1p-1");
    ("rand_i16_g90_s7.y3", "rua.t3.q08", "815c99fa6c4ec745 r2 m0 g2 z0 s2 w0x1p-1");
    ("rand_i16_g90_s7.y3", "ua.w03", "815c99fa6c4ec745");
    ("rand_i16_g90_s7.y3", "ua.w07", "5c6a13a78c3cd6a5");
    ("rand_i16_g90_s7.y3", "hb.rua", "eb98bb8474f69129");
    ("rand_i16_g90_s7.y3", "hb.20", "eb98bb8474f69129");
    ("rand_i16_g90_s7.y3", "sp.rua", "815c99fa6c4ec745");
    ("rand_i16_g90_s7.y3", "sp.20", "61c1c53b8f13e35f");
    ("rand_i16_g90_s7.y3", "c1", "815c99fa6c4ec745");
    ("rand_i16_g90_s7.y3", "c2", "815c99fa6c4ec745");
    ("rand_i16_g90_s7.y3", "cofactor", "cc09454ce6ef0814");
    ("rand_i16_g90_s7.y3", "band", "da7f6bd193ff3723");
    ("rand_i16_g90_s7.y3", "disjoint", "e52c97496dbde273");
    ("rand_i16_g90_s7.y4", "rua", "26d545723453b3fb r11 m3 g3 z5 s10 w0x1.2p-4");
    ("rand_i16_g90_s7.y4", "rua.t3.q12", "bcea20acc9613edc r0 m0 g0 z0 s1093 w0x1.3a62p-1");
    ("rand_i16_g90_s7.y4", "rua.t3.q08", "d8261942a5d26f0c r2 m0 g0 z2 s291 w0x1.30fp-3");
    ("rand_i16_g90_s7.y4", "ua.w03", "9726a57e9bc0da3d");
    ("rand_i16_g90_s7.y4", "ua.w07", "5c6a13a78c3cd6a5");
    ("rand_i16_g90_s7.y4", "hb.rua", "13c02e1d76f117c2");
    ("rand_i16_g90_s7.y4", "hb.20", "13c02e1d76f117c2");
    ("rand_i16_g90_s7.y4", "sp.rua", "02885605ba61ba12");
    ("rand_i16_g90_s7.y4", "sp.20", "02885605ba61ba12");
    ("rand_i16_g90_s7.y4", "c1", "26d545723453b3fb");
    ("rand_i16_g90_s7.y4", "c2", "f428b2cbd0344cf2");
    ("rand_i16_g90_s7.y4", "cofactor", "3055fd993a3cc501");
    ("rand_i16_g90_s7.y4", "band", "bdb83979b6d4443c");
    ("rand_i16_g90_s7.y4", "disjoint", "3055fd993a3cc501");
    ("rand_i16_g90_s7.y5", "rua", "db3659dfbca6d0ff r2 m0 g1 z1 s2 w0x1p-2");
    ("rand_i16_g90_s7.y5", "rua.t3.q12", "c34f070d8dd23e6f r2 m0 g1 z1 s37 w0x1.3ccp-2");
    ("rand_i16_g90_s7.y5", "rua.t3.q08", "db3659dfbca6d0ff r2 m0 g1 z1 s2 w0x1p-2");
    ("rand_i16_g90_s7.y5", "ua.w03", "58e3c0ada099b7ed");
    ("rand_i16_g90_s7.y5", "ua.w07", "5c6a13a78c3cd6a5");
    ("rand_i16_g90_s7.y5", "hb.rua", "06082d7503d208a7");
    ("rand_i16_g90_s7.y5", "hb.20", "06082d7503d208a7");
    ("rand_i16_g90_s7.y5", "sp.rua", "db3659dfbca6d0ff");
    ("rand_i16_g90_s7.y5", "sp.20", "ef8c8092a80712b7");
    ("rand_i16_g90_s7.y5", "c1", "db3659dfbca6d0ff");
    ("rand_i16_g90_s7.y5", "c2", "db3659dfbca6d0ff");
    ("rand_i16_g90_s7.y5", "cofactor", "fdbeadce46047038");
    ("rand_i16_g90_s7.y5", "band", "79e73d410f2cf840");
    ("rand_i16_g90_s7.y5", "disjoint", "8401ef87b9a23b00");
    ("rand_i20_g140_s12.y0", "rua", "bb96b47fb3712386 r6 m1 g0 z5 s20 w0x1.3p-5");
    ("rand_i20_g140_s12.y0", "rua.t3.q12", "40d999f3230a9ae3 r2 m0 g0 z2 s331 w0x1.7766p-4");
    ("rand_i20_g140_s12.y0", "rua.t3.q08", "40d999f3230a9ae3 r2 m0 g0 z2 s331 w0x1.7766p-4");
    ("rand_i20_g140_s12.y0", "ua.w03", "c2de9b8ea5c8c8a1");
    ("rand_i20_g140_s12.y0", "ua.w07", "395eb5a414b082a1");
    ("rand_i20_g140_s12.y0", "hb.rua", "44fa172bb13ec4d7");
    ("rand_i20_g140_s12.y0", "hb.20", "44fa172bb13ec4d7");
    ("rand_i20_g140_s12.y0", "sp.rua", "5f676899b33607ba");
    ("rand_i20_g140_s12.y0", "sp.20", "87826bfb3407137d");
    ("rand_i20_g140_s12.y0", "c1", "bb96b47fb3712386");
    ("rand_i20_g140_s12.y0", "c2", "19540dfb58176abc");
    ("rand_i20_g140_s12.y0", "cofactor", "d8d4b06d4452b3c6");
    ("rand_i20_g140_s12.y0", "band", "9c027927f18b205e");
    ("rand_i20_g140_s12.y0", "disjoint", "d8d4b06d4452b3c6");
    ("rand_i20_g140_s12.y1", "rua", "0890bf00ef000d4c r55 m36 g6 z13 s90 w0x1.9c1p-3");
    ("rand_i20_g140_s12.y1", "rua.t3.q12", "3265c8bdac087d19 r0 m0 g0 z0 s850 w0x1.61bdp-1");
    ("rand_i20_g140_s12.y1", "rua.t3.q08", "69d081cc251611c9 r5 m0 g0 z5 s258 w0x1.11a8p-3");
    ("rand_i20_g140_s12.y1", "ua.w03", "3ea92f1efbff3c9e");
    ("rand_i20_g140_s12.y1", "ua.w07", "395eb5a414b082a1");
    ("rand_i20_g140_s12.y1", "hb.rua", "4842b7cd5c57d5ca");
    ("rand_i20_g140_s12.y1", "hb.20", "09febe0c77203cab");
    ("rand_i20_g140_s12.y1", "sp.rua", "f366dece633082bb");
    ("rand_i20_g140_s12.y1", "sp.20", "b2818eba028be0c1");
    ("rand_i20_g140_s12.y1", "c1", "0890bf00ef000d4c");
    ("rand_i20_g140_s12.y1", "c2", "5c10073e70fcaddf");
    ("rand_i20_g140_s12.y1", "cofactor", "14fc9ab024d26f9d");
    ("rand_i20_g140_s12.y1", "band", "d637482b9933d432");
    ("rand_i20_g140_s12.y1", "disjoint", "123c25c54ea540de");
    ("rand_i20_g140_s12.y2", "rua", "bb96b47fb3712386 r6 m1 g0 z5 s20 w0x1.3p-5");
    ("rand_i20_g140_s12.y2", "rua.t3.q12", "40d999f3230a9ae3 r2 m0 g0 z2 s331 w0x1.7766p-4");
    ("rand_i20_g140_s12.y2", "rua.t3.q08", "40d999f3230a9ae3 r2 m0 g0 z2 s331 w0x1.7766p-4");
    ("rand_i20_g140_s12.y2", "ua.w03", "c2de9b8ea5c8c8a1");
    ("rand_i20_g140_s12.y2", "ua.w07", "395eb5a414b082a1");
    ("rand_i20_g140_s12.y2", "hb.rua", "44fa172bb13ec4d7");
    ("rand_i20_g140_s12.y2", "hb.20", "44fa172bb13ec4d7");
    ("rand_i20_g140_s12.y2", "sp.rua", "5f676899b33607ba");
    ("rand_i20_g140_s12.y2", "sp.20", "87826bfb3407137d");
    ("rand_i20_g140_s12.y2", "c1", "bb96b47fb3712386");
    ("rand_i20_g140_s12.y2", "c2", "19540dfb58176abc");
    ("rand_i20_g140_s12.y2", "cofactor", "d8d4b06d4452b3c6");
    ("rand_i20_g140_s12.y2", "band", "9c027927f18b205e");
    ("rand_i20_g140_s12.y2", "disjoint", "d8d4b06d4452b3c6");
    ("rand_i20_g140_s12.y3", "rua", "9296ccbb6af32b56 r162 m112 g10 z40 s381 w0x1.e62p-4");
    ("rand_i20_g140_s12.y3", "rua.t3.q12", "7e12abb05173c134 r0 m0 g0 z0 s3191 w0x1.f362p-2");
    ("rand_i20_g140_s12.y3", "rua.t3.q08", "348de1f99deca651 r6 m0 g0 z6 s644 w0x1.f11p-5");
    ("rand_i20_g140_s12.y3", "ua.w03", "8803409b2005e8f7");
    ("rand_i20_g140_s12.y3", "ua.w07", "395eb5a414b082a1");
    ("rand_i20_g140_s12.y3", "hb.rua", "8104e6c962be3b80");
    ("rand_i20_g140_s12.y3", "hb.20", "bcf2592417bc7853");
    ("rand_i20_g140_s12.y3", "sp.rua", "faf7fb28722e47ca");
    ("rand_i20_g140_s12.y3", "sp.20", "b98e270e8271ea8e");
    ("rand_i20_g140_s12.y3", "c1", "9296ccbb6af32b56");
    ("rand_i20_g140_s12.y3", "c2", "47902ca789eb819b");
    ("rand_i20_g140_s12.y3", "cofactor", "9356391af3426d4d");
    ("rand_i20_g140_s12.y3", "band", "0f8b48d489743a36");
    ("rand_i20_g140_s12.y3", "disjoint", "e429e12260507e25");
    ("rand_i20_g140_s12.y5", "rua", "5e37f0a1a0b3912c r237 m169 g13 z55 s479 w0x1.5ab8p-2");
    ("rand_i20_g140_s12.y5", "rua.t3.q12", "90aa79a855797b6a r0 m0 g0 z0 s1589 w0x1.3e49p-1");
    ("rand_i20_g140_s12.y5", "rua.t3.q08", "400baca8fa68981f r6 m0 g0 z6 s348 w0x1.2ap-4");
    ("rand_i20_g140_s12.y5", "ua.w03", "0494c93936a61f22");
    ("rand_i20_g140_s12.y5", "ua.w07", "395eb5a414b082a1");
    ("rand_i20_g140_s12.y5", "hb.rua", "7e91802bf693822b");
    ("rand_i20_g140_s12.y5", "hb.20", "2cc9d9d520c1c986");
    ("rand_i20_g140_s12.y5", "sp.rua", "6cfc332cc54505a2");
    ("rand_i20_g140_s12.y5", "sp.20", "9210797fafd72461");
    ("rand_i20_g140_s12.y5", "c1", "5e37f0a1a0b3912c");
    ("rand_i20_g140_s12.y5", "c2", "95ed160d7530cde7");
    ("rand_i20_g140_s12.y5", "cofactor", "bf9f05a4d904b602");
    ("rand_i20_g140_s12.y5", "band", "7e0fc43eb7d5890e");
    ("rand_i20_g140_s12.y5", "disjoint", "b346220200a6b7a6");
  ]

let check_function (label, kvs) () =
  List.iter
    (fun (k, v) ->
      let expected =
        List.filter_map
          (fun (l, k', v') -> if l = label && k' = k then Some v' else None)
          golden
      in
      Alcotest.(check (list string)) (label ^ " " ^ k) expected [ v ])
    kvs

let test_pool_complete () =
  let labels = List.sort_uniq compare (List.map (fun (l, _, _) -> l) golden) in
  let got = List.sort_uniq compare (List.map fst (all ())) in
  Alcotest.(check (list string)) "pool" labels got

let tests =
  ( "golden",
    Alcotest.test_case "pool is the recorded one" `Quick test_pool_complete
    :: List.map
         (fun ((label, _) as fn) ->
           Alcotest.test_case label `Quick (check_function fn))
         (all ()) )
