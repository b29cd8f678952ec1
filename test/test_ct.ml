(* RingCT extension: MLSAG, Pedersen amounts, range proofs, CT ledger. *)
open Monet_ec
open Monet_xmr

let drbg = Monet_hash.Drbg.of_int 424242

(* --- MLSAG --- *)

let make_column g =
  let sk = Sc.random_nonzero g and z = Sc.random_nonzero g in
  (sk, z, { Monet_sig.Mlsag.p = Point.mul_base sk; d = Point.mul_base z })

let make_ring g ~n ~pi ~col =
  Array.init n (fun i ->
      if i = pi then col
      else
        { Monet_sig.Mlsag.p = Point.mul_base (Sc.random_nonzero g);
          d = Point.mul_base (Sc.random_nonzero g) })

let test_mlsag_sign_verify () =
  let sk, z, col = make_column drbg in
  let ring = make_ring drbg ~n:7 ~pi:3 ~col in
  let sg = Monet_sig.Mlsag.sign drbg ~ring ~pi:3 ~sk ~z ~msg:"tx" in
  Alcotest.(check bool) "verifies" true (Monet_sig.Mlsag.verify ~ring ~msg:"tx" sg);
  Alcotest.(check bool) "wrong msg" false (Monet_sig.Mlsag.verify ~ring ~msg:"evil" sg)

let test_mlsag_wrong_z_rejected () =
  let sk, _, col = make_column drbg in
  let ring = make_ring drbg ~n:3 ~pi:0 ~col in
  Alcotest.check_raises "z must open slot"
    (Invalid_argument "Mlsag.sign: z does not match commitment slot") (fun () ->
      ignore
        (Monet_sig.Mlsag.sign drbg ~ring ~pi:0 ~sk ~z:(Sc.random_nonzero drbg) ~msg:"m"))

let test_mlsag_linkability () =
  let sk, z, col = make_column drbg in
  let r1 = make_ring drbg ~n:5 ~pi:1 ~col and r2 = make_ring drbg ~n:5 ~pi:4 ~col in
  let s1 = Monet_sig.Mlsag.sign drbg ~ring:r1 ~pi:1 ~sk ~z ~msg:"a" in
  let s2 = Monet_sig.Mlsag.sign drbg ~ring:r2 ~pi:4 ~sk ~z ~msg:"b" in
  Alcotest.(check bool) "linked" true (Monet_sig.Mlsag.linked s1 s2)

let test_mlsag_wire () =
  let sk, z, col = make_column drbg in
  let ring = make_ring drbg ~n:4 ~pi:2 ~col in
  let sg = Monet_sig.Mlsag.sign drbg ~ring ~pi:2 ~sk ~z ~msg:"m" in
  let w = Monet_util.Wire.create_writer () in
  Monet_sig.Mlsag.encode w sg;
  let sg' = Monet_sig.Mlsag.decode (Monet_util.Wire.reader_of_string (Monet_util.Wire.contents w)) in
  Alcotest.(check bool) "roundtrip verifies" true (Monet_sig.Mlsag.verify ~ring ~msg:"m" sg')

(* --- commitments --- *)

let test_commitment_homomorphic () =
  let b1 = Sc.random_nonzero drbg and b2 = Sc.random_nonzero drbg in
  let c1 = Ct.commit ~amount:30 ~blind:b1 and c2 = Ct.commit ~amount:12 ~blind:b2 in
  Alcotest.(check bool) "C(30)+C(12) = C(42)" true
    (Point.equal (Point.add c1 c2) (Ct.commit ~amount:42 ~blind:(Sc.add b1 b2)))

let test_balance_check () =
  let g = Monet_hash.Drbg.split drbg "bal" in
  let out_blinds = [ Sc.random_nonzero g; Sc.random_nonzero g ] in
  let pseudo = Ct.pseudo_blinds g ~n_inputs:2 ~out_blinds in
  let pseudo_ins =
    List.map2 (fun amount blind -> Ct.commit ~amount ~blind) [ 60; 40 ] pseudo
  in
  let outs =
    List.map2 (fun amount blind -> Ct.commit ~amount ~blind) [ 70; 29 ] out_blinds
  in
  Alcotest.(check bool) "balances with fee 1" true
    (Ct.balances ~pseudo_ins ~outs ~fee:1);
  Alcotest.(check bool) "fails with wrong fee" false
    (Ct.balances ~pseudo_ins ~outs ~fee:2)

(* --- range proofs --- *)

let test_range_proof_roundtrip () =
  List.iter
    (fun amount ->
      let blind = Sc.random_nonzero drbg in
      let c = Ct.commit ~amount ~blind in
      let p = Range_proof.prove drbg ~amount ~blind in
      Alcotest.(check bool) (Printf.sprintf "amount %d" amount) true
        (Range_proof.verify c p))
    [ 0; 1; 7; 255; 65535 ]

let test_range_proof_wrong_commitment () =
  let blind = Sc.random_nonzero drbg in
  let p = Range_proof.prove drbg ~amount:100 ~blind in
  let other = Ct.commit ~amount:100 ~blind:(Sc.random_nonzero drbg) in
  Alcotest.(check bool) "wrong commitment rejected" false (Range_proof.verify other p)

let test_range_proof_out_of_range () =
  Alcotest.check_raises "2^16 out of range"
    (Invalid_argument "Range_proof.prove: amount out of range") (fun () ->
      ignore (Range_proof.prove drbg ~amount:65536 ~blind:Sc.one))

let test_range_proof_tampered_bit () =
  let blind = Sc.random_nonzero drbg in
  let c = Ct.commit ~amount:9 ~blind in
  let p = Range_proof.prove drbg ~amount:9 ~blind in
  (* Swap two bit commitments: sum still matches, OR-proofs must not. *)
  let bc = Array.copy p.Range_proof.bit_commitments in
  let t = bc.(0) in
  bc.(0) <- bc.(1);
  bc.(1) <- t;
  Alcotest.(check bool) "tampered rejected" false
    (Range_proof.verify c { p with Range_proof.bit_commitments = bc })

let test_range_proof_batch () =
  let g = Monet_hash.Drbg.split drbg "rbatch" in
  let mk amount =
    let blind = Sc.random_nonzero g in
    (Ct.commit ~amount ~blind, Range_proof.prove g ~amount ~blind)
  in
  List.iter
    (fun n ->
      let batch = Array.init n (fun i -> mk ((i * 977) mod 65536)) in
      Alcotest.(check bool)
        (Printf.sprintf "valid batch of %d accepts" n)
        true (Range_proof.verify_batch batch);
      if n > 0 then begin
        (* One proof re-bound to a different commitment must sink the
           whole batch, wherever it sits. *)
        let bad = Monet_hash.Drbg.int g n in
        let corrupt = Array.copy batch in
        corrupt.(bad) <- (Ct.commit ~amount:7 ~blind:(Sc.random_nonzero g),
                          snd batch.(bad));
        Alcotest.(check bool)
          (Printf.sprintf "bad commitment at %d/%d rejects" bad n)
          false (Range_proof.verify_batch corrupt)
      end)
    [ 0; 1; 2; 5; 8 ]

(* --- CT ledger end to end --- *)

let fund g (l : Ct_ledger.t) amount : Ct_ledger.coin =
  let kp = Monet_sig.Sig_core.gen g in
  let blind = Sc.random_nonzero g in
  let idx = Ct_ledger.genesis l ~otk:kp.vk ~amount ~blind in
  { Ct_ledger.global_index = idx; kp; amount; blind }

let test_ct_spend () =
  let g = Monet_hash.Drbg.split drbg "spend" in
  let l = Ct_ledger.create () in
  (* Populate a decoy pool of arbitrary (hidden) amounts. *)
  for i = 1 to 20 do
    ignore (fund g l (100 + i))
  done;
  let coin = fund g l 500 in
  let dest = Monet_sig.Sig_core.gen g in
  match
    Ct_ledger.spend g l ~coins:[ coin ] ~dest:dest.vk ~amount:300 ~fee:2 ~ring_size:11
  with
  | Error e -> Alcotest.fail e
  | Ok (tx, change) -> (
      Alcotest.(check bool) "change exists" true (change <> None);
      (match Ct_ledger.validate l tx with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate: %s" e);
      (match Ct_ledger.apply l tx with
      | Ok () -> ()
      | Error e -> Alcotest.failf "apply: %s" e);
      (* Double spend rejected. *)
      match Ct_ledger.apply l tx with
      | Ok () -> Alcotest.fail "double spend"
      | Error e -> Alcotest.(check string) "ki reuse" "key image spent" e)

let test_ct_inflation_rejected () =
  let g = Monet_hash.Drbg.split drbg "infl" in
  let l = Ct_ledger.create () in
  for i = 1 to 15 do
    ignore (fund g l (50 + i))
  done;
  let coin = fund g l 100 in
  let dest = Monet_sig.Sig_core.gen g in
  match Ct_ledger.spend g l ~coins:[ coin ] ~dest:dest.vk ~amount:60 ~fee:0 ~ring_size:5 with
  | Error e -> Alcotest.fail e
  | Ok (tx, _) -> (
      (* Swap an output commitment for one that claims more value:
         balance check must fail. *)
      let evil_blind = Sc.random_nonzero g in
      let tampered =
        { tx with
          Ct_ledger.ct_outputs =
            List.mapi
              (fun i (o : Ct_ledger.ct_output) ->
                if i = 0 then
                  { o with Ct_ledger.cto_commitment = Ct.commit ~amount:1000 ~blind:evil_blind;
                    cto_range = Range_proof.prove g ~amount:1000 ~blind:evil_blind }
                else o)
              tx.Ct_ledger.ct_outputs }
      in
      match Ct_ledger.validate l tampered with
      | Ok () -> Alcotest.fail "inflation accepted"
      | Error e ->
          Alcotest.(check bool) "balance or sig failure" true
            (e = "commitments do not balance" || e = "mlsag invalid"))

let test_ct_overspend_rejected () =
  let g = Monet_hash.Drbg.split drbg "over" in
  let l = Ct_ledger.create () in
  let coin = fund g l 10 in
  let dest = Monet_sig.Sig_core.gen g in
  match Ct_ledger.spend g l ~coins:[ coin ] ~dest:dest.vk ~amount:60 ~fee:0 ~ring_size:3 with
  | Error e -> Alcotest.(check string) "overspend" "insufficient amount" e
  | Ok _ -> Alcotest.fail "overspend allowed"

let test_ct_multi_input () =
  let g = Monet_hash.Drbg.split drbg "multi" in
  let l = Ct_ledger.create () in
  for i = 1 to 15 do
    ignore (fund g l (10 * i))
  done;
  let c1 = fund g l 30 and c2 = fund g l 25 in
  let dest = Monet_sig.Sig_core.gen g in
  match
    Ct_ledger.spend g l ~coins:[ c1; c2 ] ~dest:dest.vk ~amount:50 ~fee:1 ~ring_size:7
  with
  | Error e -> Alcotest.fail e
  | Ok (tx, _) -> (
      Alcotest.(check int) "two inputs" 2 (List.length tx.Ct_ledger.ct_inputs);
      match Ct_ledger.apply l tx with
      | Ok () -> ()
      | Error e -> Alcotest.failf "apply: %s" e)

(* One coin passed twice as inputs of one transaction: each key image
   is unspent on its own, so only the in-transaction check stops the
   second copy from paying out the coin's value again. *)
let test_ct_duplicate_key_image_rejected () =
  let g = Monet_hash.Drbg.split drbg "dupki" in
  let l = Ct_ledger.create () in
  for i = 1 to 15 do
    ignore (fund g l (50 + i))
  done;
  let coin = fund g l 100 in
  let dest = Monet_sig.Sig_core.gen g in
  match
    Ct_ledger.spend g l ~coins:[ coin; coin ] ~dest:dest.vk ~amount:200 ~fee:0 ~ring_size:5
  with
  | Error e -> Alcotest.fail e
  | Ok (tx, _) -> (
      match Ct_ledger.apply l tx with
      | Ok () -> Alcotest.fail "one coin spent twice in one tx"
      | Error e -> Alcotest.(check string) "in-tx reuse" "duplicate key image within tx" e)

let tests =
  [
    Alcotest.test_case "mlsag sign/verify" `Quick test_mlsag_sign_verify;
    Alcotest.test_case "mlsag wrong z" `Quick test_mlsag_wrong_z_rejected;
    Alcotest.test_case "mlsag linkability" `Quick test_mlsag_linkability;
    Alcotest.test_case "mlsag wire" `Quick test_mlsag_wire;
    Alcotest.test_case "commitment homomorphic" `Quick test_commitment_homomorphic;
    Alcotest.test_case "balance check" `Quick test_balance_check;
    Alcotest.test_case "range proof roundtrip" `Quick test_range_proof_roundtrip;
    Alcotest.test_case "range proof wrong C" `Quick test_range_proof_wrong_commitment;
    Alcotest.test_case "range proof bounds" `Quick test_range_proof_out_of_range;
    Alcotest.test_case "range proof tampered" `Quick test_range_proof_tampered_bit;
    Alcotest.test_case "range proof batch" `Quick test_range_proof_batch;
    Alcotest.test_case "ct spend" `Quick test_ct_spend;
    Alcotest.test_case "ct inflation" `Quick test_ct_inflation_rejected;
    Alcotest.test_case "ct overspend" `Quick test_ct_overspend_rejected;
    Alcotest.test_case "ct multi-input" `Quick test_ct_multi_input;
    Alcotest.test_case "ct duplicate key image" `Quick test_ct_duplicate_key_image_rejected;
  ]
