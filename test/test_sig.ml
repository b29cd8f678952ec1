(* Signature layer: Schnorr, adaptor transform, LSAG, 2-party signing. *)
open Monet_ec
open Monet_sig

let drbg = Monet_hash.Drbg.of_int 777

let test_schnorr_sign () =
  let kp = Sig_core.gen drbg in
  let sg = Sig_core.sign drbg kp "hello" in
  Alcotest.(check bool) "verifies" true (Sig_core.verify kp.vk "hello" sg);
  Alcotest.(check bool) "wrong msg" false (Sig_core.verify kp.vk "evil" sg);
  let other = Sig_core.gen drbg in
  Alcotest.(check bool) "wrong key" false (Sig_core.verify other.vk "hello" sg)

let test_adaptor_lifecycle () =
  let kp = Sig_core.gen drbg in
  let y = Sc.random_nonzero drbg in
  let stmt = Point.mul_base y in
  let pre = Adaptor.pre_sign drbg kp "m" ~stmt in
  Alcotest.(check bool) "pre-verifies" true (Adaptor.pre_verify kp.vk "m" ~stmt pre);
  (* A pre-signature must not verify as a full signature. *)
  Alcotest.(check bool) "presig is not a sig" false
    (Sig_core.verify kp.vk "m"
       { Sig_core.rp = pre.Adaptor.rp_sign; s = pre.Adaptor.s_pre });
  let sg = Adaptor.adapt pre ~y in
  Alcotest.(check bool) "adapted verifies" true (Sig_core.verify kp.vk "m" sg);
  let y' = Adaptor.ext sg pre in
  Alcotest.(check bool) "extracted witness" true (Sc.equal y y')

let test_adaptor_wrong_witness () =
  let kp = Sig_core.gen drbg in
  let y = Sc.random_nonzero drbg in
  let pre = Adaptor.pre_sign drbg kp "m" ~stmt:(Point.mul_base y) in
  let bad = Adaptor.adapt pre ~y:(Sc.add y Sc.one) in
  Alcotest.(check bool) "wrong witness fails" false (Sig_core.verify kp.vk "m" bad)

let make_ring (g : Monet_hash.Drbg.t) ~n ~pi ~vk =
  Array.init n (fun i -> if i = pi then vk else Point.mul_base (Sc.random_nonzero g))

let test_lsag_sign_verify () =
  let kp = Sig_core.gen drbg in
  let ring = make_ring drbg ~n:11 ~pi:4 ~vk:kp.vk in
  let sg = Lsag.sign drbg ~ring ~pi:4 ~sk:kp.sk ~msg:"tx" in
  Alcotest.(check bool) "verifies" true (Lsag.verify ~ring ~msg:"tx" sg);
  Alcotest.(check bool) "wrong msg" false (Lsag.verify ~ring ~msg:"tx2" sg)

let test_lsag_anonymity_slot () =
  (* The real index is not recoverable from signature structure: any
     slot works for signing and signatures verify identically. *)
  let kp = Sig_core.gen drbg in
  List.iter
    (fun pi ->
      let ring = make_ring drbg ~n:5 ~pi ~vk:kp.vk in
      let sg = Lsag.sign drbg ~ring ~pi ~sk:kp.sk ~msg:"m" in
      Alcotest.(check bool) (Printf.sprintf "slot %d" pi) true
        (Lsag.verify ~ring ~msg:"m" sg))
    [ 0; 2; 4 ]

let test_lsag_linkability () =
  let kp = Sig_core.gen drbg in
  let ring1 = make_ring drbg ~n:7 ~pi:1 ~vk:kp.vk in
  let ring2 = make_ring drbg ~n:7 ~pi:5 ~vk:kp.vk in
  let s1 = Lsag.sign drbg ~ring:ring1 ~pi:1 ~sk:kp.sk ~msg:"a" in
  let s2 = Lsag.sign drbg ~ring:ring2 ~pi:5 ~sk:kp.sk ~msg:"b" in
  Alcotest.(check bool) "same key links" true (Lsag.linked s1 s2);
  let kp2 = Sig_core.gen drbg in
  let ring3 = make_ring drbg ~n:7 ~pi:2 ~vk:kp2.vk in
  let s3 = Lsag.sign drbg ~ring:ring3 ~pi:2 ~sk:kp2.sk ~msg:"c" in
  Alcotest.(check bool) "different key unlinked" false (Lsag.linked s1 s3)

let test_lsag_wrong_sk_rejected () =
  let kp = Sig_core.gen drbg and kp2 = Sig_core.gen drbg in
  let ring = make_ring drbg ~n:3 ~pi:0 ~vk:kp.vk in
  Alcotest.check_raises "sk must match slot"
    (Invalid_argument "Lsag.sign: secret key does not match ring slot") (fun () ->
      ignore (Lsag.sign drbg ~ring ~pi:0 ~sk:kp2.sk ~msg:"m"))

let test_lsag_adaptor () =
  let kp = Sig_core.gen drbg in
  let ring = make_ring drbg ~n:11 ~pi:7 ~vk:kp.vk in
  let hp = Two_party.hp_of_vk kp.vk in
  let y = Sc.random_nonzero drbg in
  let stmt = Stmt.make ~y ~hp in
  let pre = Lsag.pre_sign drbg ~ring ~pi:7 ~sk:kp.sk ~msg:"tx" ~stmt in
  Alcotest.(check bool) "pre-verifies" true (Lsag.pre_verify ~ring ~msg:"tx" ~stmt pre);
  (* Not yet a valid signature. *)
  let not_yet =
    { Lsag.c0 = pre.Lsag.p_c0; ss = pre.Lsag.p_ss; key_image = pre.Lsag.p_key_image }
  in
  Alcotest.(check bool) "presig not valid" false (Lsag.verify ~ring ~msg:"tx" not_yet);
  let sg = Lsag.adapt pre ~y in
  Alcotest.(check bool) "adapted verifies" true (Lsag.verify ~ring ~msg:"tx" sg);
  Alcotest.(check bool) "witness extracts" true (Sc.equal y (Lsag.ext sg pre))

let test_lsag_serialization () =
  let kp = Sig_core.gen drbg in
  let ring = make_ring drbg ~n:5 ~pi:2 ~vk:kp.vk in
  let sg = Lsag.sign drbg ~ring ~pi:2 ~sk:kp.sk ~msg:"m" in
  let w = Monet_util.Wire.create_writer () in
  Lsag.encode w sg;
  let sg' = Lsag.decode (Monet_util.Wire.reader_of_string (Monet_util.Wire.contents w)) in
  Alcotest.(check bool) "roundtrip verifies" true (Lsag.verify ~ring ~msg:"m" sg')

let test_stmt_proved () =
  let hp = Point.hash_to_point "x" "hp" in
  let y = Sc.random_nonzero drbg in
  let p = Stmt.make_proved drbg ~y ~hp in
  Alcotest.(check bool) "verifies" true (Stmt.verify ~hp p);
  let bad = { p with Stmt.stmt = { p.Stmt.stmt with Stmt.yhp = Point.base } } in
  Alcotest.(check bool) "tampered leg rejected" false (Stmt.verify ~hp bad)

let run_jgen () =
  match Two_party.run_jgen (Monet_hash.Drbg.split drbg "a") (Monet_hash.Drbg.split drbg "b") with
  | Ok (ja, jb) -> (ja, jb)
  | Error e -> Alcotest.failf "jgen: %s" e

let test_two_party_jgen () =
  let ja, jb = run_jgen () in
  Alcotest.(check bool) "same joint vk" true (Point.equal ja.Two_party.vk jb.Two_party.vk);
  Alcotest.(check bool) "same key image" true
    (Point.equal ja.Two_party.key_image jb.Two_party.key_image);
  (* Joint key image equals what the combined secret would produce. *)
  let sk = Sc.add ja.Two_party.my_sk jb.Two_party.my_sk in
  Alcotest.(check bool) "key image correct" true
    (Point.equal ja.Two_party.key_image (Lsag.key_image ~sk ~vk:ja.Two_party.vk))

let test_two_party_psign_plain () =
  let ja, jb = run_jgen () in
  let ring = make_ring drbg ~n:11 ~pi:3 ~vk:ja.Two_party.vk in
  match
    Two_party.run_psign (Monet_hash.Drbg.split drbg "na") (Monet_hash.Drbg.split drbg "nb")
      ~alice:ja ~bob:jb ~ring ~pi:3 ~msg:"commit-tx" ~stmt:Stmt.zero
  with
  | Error e -> Alcotest.failf "psign: %s" e
  | Ok pre ->
      (* With a zero statement, the pre-signature is already a valid LSAG. *)
      let sg =
        { Lsag.c0 = pre.Lsag.p_c0; ss = pre.Lsag.p_ss; key_image = pre.Lsag.p_key_image }
      in
      Alcotest.(check bool) "jointly signed LSAG verifies" true
        (Lsag.verify ~ring ~msg:"commit-tx" sg)

let test_two_party_psign_adaptor () =
  let ja, jb = run_jgen () in
  let ring = make_ring drbg ~n:11 ~pi:6 ~vk:ja.Two_party.vk in
  let y = Sc.random_nonzero drbg in
  let stmt = Stmt.make ~y ~hp:ja.Two_party.hp in
  match
    Two_party.run_psign (Monet_hash.Drbg.split drbg "n1") (Monet_hash.Drbg.split drbg "n2")
      ~alice:ja ~bob:jb ~ring ~pi:6 ~msg:"tx" ~stmt
  with
  | Error e -> Alcotest.failf "psign: %s" e
  | Ok pre ->
      Alcotest.(check bool) "pre-verifies" true (Lsag.pre_verify ~ring ~msg:"tx" ~stmt pre);
      let sg = Lsag.adapt pre ~y in
      Alcotest.(check bool) "adapted verifies (standard LSAG verify)" true
        (Lsag.verify ~ring ~msg:"tx" sg);
      Alcotest.(check bool) "witness extraction" true (Sc.equal y (Lsag.ext sg pre))

let test_two_party_bad_z_caught () =
  let ja, jb = run_jgen () in
  let ring = make_ring drbg ~n:5 ~pi:0 ~vk:ja.Two_party.vk in
  let na = Two_party.nonce drbg ja and nb = Two_party.nonce drbg jb in
  match
    Two_party.session ja ~ring ~pi:0 ~msg:"m" ~stmt:Stmt.zero ~mine:na
      ~theirs:nb.Two_party.ns_msg
  with
  | Error e -> Alcotest.failf "session: %s" e
  | Ok sa ->
      let zb = Two_party.z_share jb sa nb in
      Alcotest.(check bool) "honest share accepted" true
        (Two_party.check_z_share ja sa ~their_nonce:nb.Two_party.ns_msg ~z:zb);
      Alcotest.(check bool) "corrupted share rejected" false
        (Two_party.check_z_share ja sa ~their_nonce:nb.Two_party.ns_msg
           ~z:(Sc.add zb Sc.one))

(* --- RLC batch verification (lib/sig/batch.ml) ---

   The contract under test: batch accept ⇔ every individual verify
   accepts. The adversarial direction plants exactly one corrupted
   signature at a DRBG-chosen slot for every batch size — the single
   combined MSM identity has to notice it wherever it hides. *)

let mk_sig_batch g n =
  Array.init n (fun i ->
      let kp = Sig_core.gen g in
      let msg = Printf.sprintf "batch-msg-%d" i in
      { Batch.vk = kp.vk; msg; sg = Sig_core.sign g kp msg })

let test_batch_sigs_complete () =
  let g = Monet_hash.Drbg.of_int 0xb001 in
  List.iter
    (fun n ->
      let items = mk_sig_batch g n in
      Alcotest.(check bool)
        (Printf.sprintf "all-valid batch of %d accepts" n)
        true (Batch.verify_sigs items);
      Alcotest.(check bool)
        (Printf.sprintf "individual verifies agree (n=%d)" n)
        true
        (Array.for_all
           (fun it -> Sig_core.verify it.Batch.vk it.Batch.msg it.Batch.sg)
           items))
    [ 0; 1; 2; 3; 7; 16; 64 ]

let test_batch_sigs_sound () =
  let g = Monet_hash.Drbg.of_int 0xb002 in
  List.iter
    (fun n ->
      let items = mk_sig_batch g n in
      let bad = Monet_hash.Drbg.int g n in
      let corrupt =
        Array.mapi
          (fun i it ->
            if i <> bad then it
            else
              match Monet_hash.Drbg.int g 3 with
              | 0 ->
                  (* s-component tampered *)
                  { it with
                    Batch.sg =
                      { it.Batch.sg with
                        Sig_core.s = Sc.add it.Batch.sg.Sig_core.s Sc.one } }
              | 1 ->
                  (* commitment point replaced *)
                  { it with
                    Batch.sg =
                      { it.Batch.sg with
                        Sig_core.rp = Point.mul_base (Sc.random g) } }
              | _ ->
                  (* signature moved to a different message *)
                  { it with Batch.msg = it.Batch.msg ^ "-evil" })
          items
      in
      Alcotest.(check bool)
        (Printf.sprintf "one bad sig at slot %d/%d rejects" bad n)
        false (Batch.verify_sigs corrupt))
    [ 1; 2; 3; 7; 16; 64 ]

let mk_pre_batch g n =
  Array.init n (fun i ->
      let kp = Sig_core.gen g in
      let stmt = Point.mul_base (Sc.random_nonzero g) in
      let msg = Printf.sprintf "pre-msg-%d" i in
      { Batch.p_vk = kp.vk; p_msg = msg; p_stmt = stmt;
        p_pre = Adaptor.pre_sign g kp msg ~stmt })

let test_batch_pres () =
  let g = Monet_hash.Drbg.of_int 0xb003 in
  List.iter
    (fun n ->
      let items = mk_pre_batch g n in
      Alcotest.(check bool)
        (Printf.sprintf "all-valid pre batch of %d accepts" n)
        true (Batch.verify_pres items);
      if n > 0 then begin
        let bad = Monet_hash.Drbg.int g n in
        let corrupt =
          Array.mapi
            (fun i it ->
              if i <> bad then it
              else { it with Batch.p_stmt = Point.mul_base (Sc.random g) })
            items
        in
        Alcotest.(check bool)
          (Printf.sprintf "one bad statement at slot %d/%d rejects" bad n)
          false (Batch.verify_pres corrupt)
      end)
    [ 0; 1; 2; 5; 16; 32 ]

let test_batch_lsag () =
  let g = Monet_hash.Drbg.of_int 0xb004 in
  (* Two signers share one physical ring (the Hp cache path) plus one
     signer on a second ring. *)
  let kp1 = Sig_core.gen g and kp2 = Sig_core.gen g in
  let ring_a = make_ring g ~n:7 ~pi:2 ~vk:kp1.vk in
  ring_a.(5) <- kp2.vk;
  let ring_b = make_ring g ~n:5 ~pi:0 ~vk:kp2.vk in
  let items =
    [| { Batch.ring = ring_a; l_msg = "a1";
         l_sg = Lsag.sign g ~ring:ring_a ~pi:2 ~sk:kp1.sk ~msg:"a1" };
       { Batch.ring = ring_a; l_msg = "a2";
         l_sg = Lsag.sign g ~ring:ring_a ~pi:5 ~sk:kp2.sk ~msg:"a2" };
       { Batch.ring = ring_b; l_msg = "b1";
         l_sg = Lsag.sign g ~ring:ring_b ~pi:0 ~sk:kp2.sk ~msg:"b1" } |]
  in
  Alcotest.(check bool) "lsag batch accepts" true (Batch.lsag items);
  let corrupt = Array.copy items in
  corrupt.(1) <- { items.(1) with Batch.l_msg = "a2-evil" };
  Alcotest.(check bool) "lsag batch with one bad walk rejects" false
    (Batch.lsag corrupt)

(* --- Golden bytes of every ring-walk flavour ---

   Seeded sign / pre-sign / adapt outputs over a ring of 11, pinned by
   the SHA-512 of their wire encodings: any change to a challenge hash,
   a DRBG draw order or a codec moves a digest. The 2-party RingCT
   pre-signature has no codec of its own; it is pinned through its
   MLSAG form adapted by zero (every response byte, the real index
   aside). *)

let golden_digest enc x =
  let w = Monet_util.Wire.create_writer () in
  enc w x;
  Monet_util.Hex.encode (Monet_hash.Sha512.digest (Monet_util.Wire.contents w))

let test_ring_walk_golden () =
  let g = Monet_hash.Drbg.of_int 0x601d in
  let n = 11 in
  let kp = Sig_core.gen g in
  let ring = make_ring g ~n ~pi:4 ~vk:kp.vk in
  let y = Sc.random_nonzero g in
  let stmt = Stmt.make ~y ~hp:(Two_party.hp_of_vk kp.vk) in
  let sg = Lsag.sign g ~ring ~pi:4 ~sk:kp.sk ~msg:"golden" in
  let pre = Lsag.pre_sign g ~ring ~pi:4 ~sk:kp.sk ~msg:"golden" ~stmt in
  let column () =
    { Mlsag.p = Point.mul_base (Sc.random_nonzero g);
      d = Point.mul_base (Sc.random_nonzero g) }
  in
  let sk = Sc.random_nonzero g and z = Sc.random_nonzero g in
  let cols =
    Array.init n (fun i ->
        if i = 7 then { Mlsag.p = Point.mul_base sk; d = Point.mul_base z } else column ())
  in
  let msg_sg = Mlsag.sign g ~ring:cols ~pi:7 ~sk ~z ~msg:"golden" in
  let ja, jb =
    match Two_party.run_jgen (Monet_hash.Drbg.split g "a") (Monet_hash.Drbg.split g "b") with
    | Ok r -> r
    | Error e -> Alcotest.failf "jgen: %s" e
  in
  let stmt2 = Stmt.make ~y ~hp:ja.Two_party.hp in
  let ring2 = make_ring g ~n ~pi:2 ~vk:ja.Two_party.vk in
  let tp =
    match
      Two_party.run_psign (Monet_hash.Drbg.split g "n1") (Monet_hash.Drbg.split g "n2")
        ~alice:ja ~bob:jb ~ring:ring2 ~pi:2 ~msg:"golden" ~stmt:stmt2
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "2p psign: %s" e
  in
  let zc = Sc.random_nonzero g in
  let cols2 =
    Array.init n (fun i ->
        if i = 9 then { Mlsag.p = ja.Two_party.vk; d = Point.mul_base zc } else column ())
  in
  let tpc =
    match
      Two_party_ct.run_psign (Monet_hash.Drbg.split g "c1") (Monet_hash.Drbg.split g "c2")
        ~alice:ja ~bob:jb ~ring:cols2 ~pi:9 ~msg:"golden" ~stmt:stmt2 ~z:zc
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "2p-ct psign: %s" e
  in
  Alcotest.(check (list (pair string string)))
    "SHA-512 of each encoding"
    [
      ( "lsag.sign",
        "ccc2c4f62a55e116eebf52b3220187cf9656300f62c1f39a2936b5661db5cfedae215825bc063dedb8b2f42e33d35ce0f455d8feb784eba6dc8d58f645408657" );
      ( "lsag.pre_sign",
        "5b4a94411406109f2102ea08bcf39a46c82f6bf3373174a6126cff7dd4d17f7375ebba8866a211b7763b099fd5b1ac5a89e2f9d2d79847954882ea2b61036fe7" );
      ( "lsag.adapt",
        "983992dc72add24a2139c6a56ada835d001b58b5613293f72fd82cf6bc35602aafbaecaeb53996990b1265b5ea178cfe08d7af1a725e344cd142f9f792f5f4f8" );
      ( "mlsag.sign",
        "a2bd4b63a59901ecf2c0b8bec02f009b33b8d3ce283041b20e219822c4cd4fa9783c108cc4189f72a00ea9e5fe574b8329db1266a5a5e7fafdeec8c1696c3365" );
      ( "two_party.run_psign",
        "d3e97451c471be2f75ac9856285ee4c5a84ceb3af8929b9b17c4774b0fce7bff89cff0a7c06d6351615989e7f70d379c293eba61804d2afaacf986724ee50e9e" );
      ( "two_party_ct.run_psign",
        "9e5d76429eb8715040ca8b8130e8ace7b1badcf7be48f05f22db8be656edb403236535c3a405ab66e1d31daccc98ffcaf9075ddb3ef130a7f021fcf7199d5b8c" );
      ( "two_party_ct.adapt",
        "7ba7aa24e19b0373bf5d102eee948f167e75ad30e6c57cb4fbbf41f9d25ddbc4d3065da77008d1d59351323701b1d7e7689e77dfc73c6cf160e04ebfb841b5be" );
    ]
    [
      ("lsag.sign", golden_digest Lsag.encode sg);
      ("lsag.pre_sign", golden_digest Lsag.encode_pre pre);
      ("lsag.adapt", golden_digest Lsag.encode (Lsag.adapt pre ~y));
      ("mlsag.sign", golden_digest Mlsag.encode msg_sg);
      ("two_party.run_psign", golden_digest Lsag.encode_pre tp);
      ("two_party_ct.run_psign", golden_digest Mlsag.encode (Two_party_ct.adapt tpc ~y:Sc.zero));
      ("two_party_ct.adapt", golden_digest Mlsag.encode (Two_party_ct.adapt tpc ~y));
    ]

(* --- The ring-walk step counter ---

   sig.lsag_step bumps once per ring slot walked: n for a verify or a
   pre-verify, n - 1 for a sign or a 2-party session (the real slot's
   challenge comes from its commitments, not from a step), in the
   one-row and the two-row flavour alike. *)

let test_ring_walk_step_counts () =
  let module M = Monet_obs.Metrics in
  Fun.protect ~finally:(fun () -> M.disable (); M.reset ()) @@ fun () ->
  M.enable ();
  let ctr = M.counter "sig.lsag_step" in
  let steps f =
    let before = M.count ctr in
    let r = f () in
    (M.count ctr - before, r)
  in
  let g = Monet_hash.Drbg.of_int 0x57e9 in
  let n = 6 in
  let kp = Sig_core.gen g in
  let ring = make_ring g ~n ~pi:2 ~vk:kp.vk in
  let y = Sc.random_nonzero g in
  let stmt = Stmt.make ~y ~hp:(Two_party.hp_of_vk kp.vk) in
  let s_sign, sg = steps (fun () -> Lsag.sign g ~ring ~pi:2 ~sk:kp.sk ~msg:"m") in
  let s_pre, pre = steps (fun () -> Lsag.pre_sign g ~ring ~pi:2 ~sk:kp.sk ~msg:"m" ~stmt) in
  let s_verify, _ = steps (fun () -> Lsag.verify ~ring ~msg:"m" sg) in
  let s_pre_verify, _ = steps (fun () -> Lsag.pre_verify ~ring ~msg:"m" ~stmt pre) in
  let sk = Sc.random_nonzero g and z = Sc.random_nonzero g in
  let cols =
    Array.init n (fun i ->
        if i = 4 then { Mlsag.p = Point.mul_base sk; d = Point.mul_base z }
        else
          { Mlsag.p = Point.mul_base (Sc.random_nonzero g);
            d = Point.mul_base (Sc.random_nonzero g) })
  in
  let s_msign, msg_sg = steps (fun () -> Mlsag.sign g ~ring:cols ~pi:4 ~sk ~z ~msg:"m") in
  let s_mverify, _ = steps (fun () -> Mlsag.verify ~ring:cols ~msg:"m" msg_sg) in
  let ja, jb =
    match Two_party.run_jgen (Monet_hash.Drbg.split g "a") (Monet_hash.Drbg.split g "b") with
    | Ok r -> r
    | Error e -> Alcotest.failf "jgen: %s" e
  in
  let stmt2 = Stmt.make ~y ~hp:ja.Two_party.hp in
  let ring2 = make_ring g ~n ~pi:1 ~vk:ja.Two_party.vk in
  let zc = Sc.random_nonzero g in
  let cols2 =
    Array.init n (fun i ->
        if i = 3 then { Mlsag.p = ja.Two_party.vk; d = Point.mul_base zc }
        else
          { Mlsag.p = Point.mul_base (Sc.random_nonzero g);
            d = Point.mul_base (Sc.random_nonzero g) })
  in
  let na = Two_party.nonce g ja and nb = Two_party.nonce g jb in
  let ok label = function Ok x -> x | Error e -> Alcotest.failf "%s: %s" label e in
  let s_session, _ =
    steps (fun () ->
        ok "session"
          (Two_party.session ja ~ring:ring2 ~pi:1 ~msg:"m" ~stmt:stmt2 ~mine:na
             ~theirs:nb.Two_party.ns_msg))
  in
  let s_ct_session, _ =
    steps (fun () ->
        ok "ct session"
          (Two_party_ct.session ja ~ring:cols2 ~pi:3 ~msg:"m" ~stmt:stmt2 ~z:zc ~mine:na
             ~theirs:nb.Two_party.ns_msg))
  in
  let tpc =
    ok "ct psign"
      (Two_party_ct.run_psign (Monet_hash.Drbg.split g "c1") (Monet_hash.Drbg.split g "c2")
         ~alice:ja ~bob:jb ~ring:cols2 ~pi:3 ~msg:"m" ~stmt:stmt2 ~z:zc)
  in
  let s_ct_pre_verify, ct_ok =
    steps (fun () -> Two_party_ct.pre_verify ~ring:cols2 ~msg:"m" ~stmt:stmt2 tpc)
  in
  Alcotest.(check bool) "2p-ct pre-verifies" true ct_ok;
  Alcotest.(check (list (pair string int)))
    "steps per call on a ring of 6"
    [ ("lsag.sign", n - 1); ("lsag.pre_sign", n - 1); ("lsag.verify", n);
      ("lsag.pre_verify", n); ("mlsag.sign", n - 1); ("mlsag.verify", n);
      ("two_party.session", n - 1); ("two_party_ct.session", n - 1);
      ("two_party_ct.pre_verify", n) ]
    [ ("lsag.sign", s_sign); ("lsag.pre_sign", s_pre); ("lsag.verify", s_verify);
      ("lsag.pre_verify", s_pre_verify); ("mlsag.sign", s_msign);
      ("mlsag.verify", s_mverify); ("two_party.session", s_session);
      ("two_party_ct.session", s_ct_session); ("two_party_ct.pre_verify", s_ct_pre_verify) ]

let tests =
  [
    Alcotest.test_case "schnorr sign" `Quick test_schnorr_sign;
    Alcotest.test_case "adaptor lifecycle" `Quick test_adaptor_lifecycle;
    Alcotest.test_case "adaptor wrong witness" `Quick test_adaptor_wrong_witness;
    Alcotest.test_case "lsag sign/verify" `Quick test_lsag_sign_verify;
    Alcotest.test_case "lsag slot anonymity" `Quick test_lsag_anonymity_slot;
    Alcotest.test_case "lsag linkability" `Quick test_lsag_linkability;
    Alcotest.test_case "lsag wrong sk" `Quick test_lsag_wrong_sk_rejected;
    Alcotest.test_case "lsag adaptor" `Quick test_lsag_adaptor;
    Alcotest.test_case "lsag wire" `Quick test_lsag_serialization;
    Alcotest.test_case "stmt proofs" `Quick test_stmt_proved;
    Alcotest.test_case "2p jgen" `Quick test_two_party_jgen;
    Alcotest.test_case "2p psign plain" `Quick test_two_party_psign_plain;
    Alcotest.test_case "2p psign adaptor" `Quick test_two_party_psign_adaptor;
    Alcotest.test_case "2p bad z share" `Quick test_two_party_bad_z_caught;
    Alcotest.test_case "batch sigs complete" `Quick test_batch_sigs_complete;
    Alcotest.test_case "batch sigs sound (adversarial)" `Quick test_batch_sigs_sound;
    Alcotest.test_case "batch pre-signatures" `Quick test_batch_pres;
    Alcotest.test_case "batch lsag (shared Hp)" `Quick test_batch_lsag;
    Alcotest.test_case "ring walk golden bytes" `Quick test_ring_walk_golden;
    Alcotest.test_case "ring walk step counts" `Quick test_ring_walk_step_counts;
  ]
