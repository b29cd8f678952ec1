(* MoChannel integration tests: establishment, updates, closes,
   disputes, revocation and fungibility — the paper's §IV-B security
   properties, exercised over the real simulated ledgers. *)
open Monet_ec
open Monet_channel.Channel
module Tp = Monet_sig.Two_party

let err = error_to_string
let drbg = Monet_hash.Drbg.of_int 60606

let test_cfg =
  { default_config with vcof_reps = Some 8; ring_size = 5; n_escrowers = 4;
    escrow_threshold = 2 }

let setup ?(cfg = test_cfg) ?(bal_a = 60) ?(bal_b = 40) (label : string) =
  let env = make_env (Monet_hash.Drbg.split drbg label) in
  let g = Monet_hash.Drbg.split drbg (label ^ "/wallets") in
  Monet_xmr.Ledger.ensure_decoys g env.ledger ~amount:60 ~n:20;
  Monet_xmr.Ledger.ensure_decoys g env.ledger ~amount:40 ~n:20;
  let wa = Monet_xmr.Wallet.create ~ring_size:cfg.ring_size g ~label:"walletA" in
  let wb = Monet_xmr.Wallet.create ~ring_size:cfg.ring_size g ~label:"walletB" in
  let fund w amount =
    let kp = Monet_sig.Sig_core.gen g in
    let idx = Monet_xmr.Ledger.genesis_output env.ledger { Monet_xmr.Tx.otk = kp.vk; amount } in
    Monet_xmr.Wallet.adopt w ~global_index:idx ~keypair:kp ~amount
  in
  fund wa bal_a;
  fund wb bal_b;
  match establish ~cfg env ~id:1 ~wallet_a:wa ~wallet_b:wb ~bal_a ~bal_b with
  | Ok (c, rep) -> (env, c, rep, wa, wb)
  | Error e -> Alcotest.failf "establish: %s" (err e)

let test_establish () =
  let _, c, rep, _, _ = setup "est" in
  Alcotest.(check int) "capacity" 100 c.a.capacity;
  Alcotest.(check int) "alice balance" 60 c.a.my_balance;
  Alcotest.(check int) "bob balance" 40 c.b.my_balance;
  Alcotest.(check bool) "funding outpoint exists" true (c.a.funding_outpoint >= 0);
  (* Paper counts 10 off-chain messages at establishment (plus the
     funding-signature exchange); ours is in that ballpark. *)
  Alcotest.(check bool) "message count plausible" true
    (rep.messages >= 10 && rep.messages <= 16);
  Alcotest.(check int) "one monero tx" 1 rep.monero_txs;
  Alcotest.(check int) "two script txs" 2 rep.script_txs;
  (* The funding output is a perfectly normal-looking output. *)
  match Monet_xmr.Ledger.get_output c.env.ledger c.a.funding_outpoint with
  | None -> Alcotest.fail "funding output missing"
  | Some e -> Alcotest.(check int) "capacity on-chain" 100 e.Monet_xmr.Ledger.out.Monet_xmr.Tx.amount

let test_update_and_cooperative_close () =
  let _, c, _, _, _ = setup "upd" in
  (match update c ~amount_from_a:15 with
  | Error e -> Alcotest.failf "update: %s" (err e)
  | Ok rep ->
      Alcotest.(check int) "state" 1 c.a.state;
      Alcotest.(check bool) "update messages" true (rep.messages >= 4));
  (match update c ~amount_from_a:(-5) with
  | Error e -> Alcotest.failf "update2: %s" (err e)
  | Ok _ -> ());
  Alcotest.(check int) "alice 50" 50 c.a.my_balance;
  Alcotest.(check int) "bob 50" 50 c.b.my_balance;
  match cooperative_close c with
  | Error e -> Alcotest.failf "close: %s" (err e)
  | Ok (payout, rep) ->
      Alcotest.(check int) "alice payout" 50 payout.pay_a;
      Alcotest.(check int) "bob payout" 50 payout.pay_b;
      Alcotest.(check int) "one monero tx" 1 rep.monero_txs;
      Alcotest.(check int) "one script tx (kes close)" 1 rep.script_txs;
      (* Closing transaction verifies under plain ledger rules. *)
      Alcotest.(check bool) "close tx on chain" true
        (Monet_xmr.Ledger.output_count c.env.ledger > 0)

let test_overdraft_rejected () =
  let _, c, _, _, _ = setup "ovr" in
  match update c ~amount_from_a:1000 with
  | Ok _ -> Alcotest.fail "overdraft allowed"
  | Error e -> Alcotest.(check string) "error" "insufficient channel balance" (err e)

let test_update_after_close_rejected () =
  let _, c, _, _, _ = setup "uac" in
  (match cooperative_close c with Ok _ -> () | Error e -> Alcotest.fail (err e));
  match update c ~amount_from_a:1 with
  | Ok _ -> Alcotest.fail "update after close"
  | Error _ -> ()

let test_fungibility () =
  (* The channel's funding and closing transactions must be
     structurally identical to ordinary wallet payments: same input
     arity, ring sizes, output fields — on-chain unidentifiability. *)
  let env, c, _, wa, _ = setup "fun" in
  (match update c ~amount_from_a:10 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  let payout, _ =
    match cooperative_close c with Ok r -> r | Error e -> Alcotest.failf "close: %s" (err e)
  in
  (* An ordinary payment for comparison. *)
  Monet_xmr.Wallet.scan wa env.ledger;
  let g2 = Monet_hash.Drbg.split drbg "fun2" in
  Monet_xmr.Ledger.ensure_decoys g2 env.ledger ~amount:7 ~n:20;
  let dest = Point.mul_base (Sc.random_nonzero g2) in
  ignore dest;
  let close_tx = payout.close_tx in
  List.iter
    (fun (i : Monet_xmr.Tx.input) ->
      Alcotest.(check int) "close ring size = wallet ring size" test_cfg.ring_size
        (Array.length i.ring_refs))
    close_tx.Monet_xmr.Tx.inputs;
  Alcotest.(check int) "close tx one input" 1 (List.length close_tx.Monet_xmr.Tx.inputs);
  (* No marker fields: extra is empty, fee 0, outputs are plain
     (otk, amount) pairs like any other tx. *)
  Alcotest.(check string) "no extra marker" "" close_tx.Monet_xmr.Tx.extra;
  (* Validate that the ledger accepted it under the ordinary rules
     (it was mined in cooperative_close). *)
  Alcotest.(check bool) "spent via standard LSAG path" true
    (Hashtbl.mem env.ledger.Monet_xmr.Ledger.key_images
       (Point.encode c.a.joint.Tp.key_image))

let test_dispute_responsive () =
  (* Proposer opens a dispute; counterparty responds; channel settles
     cooperatively at the latest state; no key release. *)
  let _, c, _, _, _ = setup "dresp" in
  (match update c ~amount_from_a:20 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  match dispute_close c ~proposer:Tp.Alice ~responsive:true with
  | Error e -> Alcotest.failf "dispute: %s" (err e)
  | Ok (payout, rep) ->
      Alcotest.(check int) "alice gets latest" 40 payout.pay_a;
      Alcotest.(check int) "bob gets latest" 60 payout.pay_b;
      Alcotest.(check int) "two script txs (timer+resp)" 2 rep.script_txs

let test_dispute_unresponsive_guaranteed_closure () =
  (* Counterparty vanishes. Timer expires, KES releases the escrowed
     root, proposer derives the latest witness and settles alone:
     guaranteed channel closure + guaranteed payout. *)
  let _, c, _, _, _ = setup "dto" in
  (match update c ~amount_from_a:25 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (match update c ~amount_from_a:(-10) with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (* Latest: alice 45, bob 55. *)
  match dispute_close c ~proposer:Tp.Bob ~responsive:false with
  | Error e -> Alcotest.failf "dispute: %s" (err e)
  | Ok (payout, rep) ->
      Alcotest.(check int) "alice payout at latest" 45 payout.pay_a;
      Alcotest.(check int) "bob payout at latest" 55 payout.pay_b;
      Alcotest.(check int) "two script txs (timer+timeout)" 2 rep.script_txs;
      Alcotest.(check bool) "channel closed" true c.a.closed

let test_revocation_punishes_cheater () =
  (* Bob publishes state 1 after the channel moved to state 3. Alice
     watches the mempool, extracts the old combined witness from Bob's
     own signature, derives his latest witness forward and settles the
     latest state first. *)
  let _, c, _, _, _ = setup "rev" in
  (match update c ~amount_from_a:30 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (* state 1: alice 30 / bob 70 — good for bob *)
  (match update c ~amount_from_a:(-40) with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (match update c ~amount_from_a:(-10) with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (* state 3 (latest): alice 80 / bob 20 *)
  let alice_old_wit = my_witness_at c.a ~state:1 in
  (match submit_old_state c ~cheater:Tp.Bob ~state:1 ~victim_old_wit:alice_old_wit with
  | Error e -> Alcotest.failf "cheat submit: %s" (err e)
  | Ok _ -> ());
  match watch_and_punish c ~victim:Tp.Alice with
  | Error e -> Alcotest.failf "punish: %s" (err e)
  | Ok payout ->
      Alcotest.(check int) "alice gets latest 80" 80 payout.pay_a;
      Alcotest.(check int) "bob gets latest 20" 20 payout.pay_b

let test_cheat_unnoticed_would_win () =
  (* Sanity for the race model: if nobody watches, the old state mines
     — i.e. the punishment above is what protects Alice. *)
  let env, c, _, _, _ = setup "rev2" in
  (match update c ~amount_from_a:30 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (match update c ~amount_from_a:(-40) with Ok _ -> () | Error e -> Alcotest.fail (err e));
  let alice_old_wit = my_witness_at c.a ~state:1 in
  (match submit_old_state c ~cheater:Tp.Bob ~state:1 ~victim_old_wit:alice_old_wit with
  | Error e -> Alcotest.failf "cheat submit: %s" (err e)
  | Ok _ -> ());
  let block = Monet_xmr.Ledger.mine env.ledger in
  Alcotest.(check int) "old state mined" 1 (List.length block.Monet_xmr.Ledger.b_txs)

let test_lock_unlock () =
  (* One hop of a multi-hop payment inside the channel. *)
  let _, c, _, _, _ = setup "lock" in
  let g = Monet_hash.Drbg.split drbg "lock-wit" in
  let y = Sc.random_nonzero g in
  let lock_stmt = Monet_sig.Stmt.make ~y ~hp:c.a.joint.Tp.hp in
  (match lock c ~payer:Tp.Alice ~amount:10 ~lock_stmt ~timer:5000 with
  | Error e -> Alcotest.failf "lock: %s" (err e)
  | Ok _ -> ());
  Alcotest.(check bool) "lock pending" true (c.a.lock <> None);
  (* A further update is refused while locked. *)
  (match update c ~amount_from_a:1 with
  | Ok _ -> Alcotest.fail "update during lock"
  | Error _ -> ());
  (* Wrong witness refused. *)
  (match unlock c ~y:(Sc.add y Sc.one) with
  | Ok _ -> Alcotest.fail "bad witness unlocked"
  | Error _ -> ());
  (match unlock c ~y with
  | Error e -> Alcotest.failf "unlock: %s" (err e)
  | Ok (_, extracted) ->
      Alcotest.(check bool) "payer extracts the lock witness" true (Sc.equal extracted y));
  (* Channel now settles at the shifted balances. *)
  match cooperative_close c with
  | Error e -> Alcotest.failf "close: %s" (err e)
  | Ok (payout, _) ->
      Alcotest.(check int) "alice 50" 50 payout.pay_a;
      Alcotest.(check int) "bob 50" 50 payout.pay_b

let test_lock_cancel () =
  let _, c, _, _, _ = setup "lockc" in
  let y = Sc.random_nonzero (Monet_hash.Drbg.split drbg "w2") in
  let lock_stmt = Monet_sig.Stmt.make ~y ~hp:c.a.joint.Tp.hp in
  (match lock c ~payer:Tp.Alice ~amount:10 ~lock_stmt ~timer:5000 with
  | Error e -> Alcotest.failf "lock: %s" (err e)
  | Ok _ -> ());
  (match cancel_lock c with
  | Error e -> Alcotest.failf "cancel: %s" (err e)
  | Ok _ -> ());
  Alcotest.(check bool) "lock cleared" true (c.a.lock = None);
  match cooperative_close c with
  | Error e -> Alcotest.failf "close: %s" (err e)
  | Ok (payout, _) ->
      Alcotest.(check int) "alice unchanged" 60 payout.pay_a;
      Alcotest.(check int) "bob unchanged" 40 payout.pay_b

(* A Lock_open carries the payee's completed pre-signature, but the
   payer keeps only what it derives itself: its own lock pre-signature
   adapted by the extracted witness. A forged challenge or real index
   must neither raise nor cost the payer its close at the latest state;
   a truncated response vector is a typed error. *)

let lock_open_with (label : string) (tamper : Monet_sig.Lsag.pre_signature -> Monet_sig.Lsag.pre_signature) =
  let _, c, _, _, _ = setup label in
  let y = Sc.random_nonzero (Monet_hash.Drbg.split drbg (label ^ "/y")) in
  let lock_stmt = Monet_sig.Stmt.make ~y ~hp:c.a.joint.Tp.hp in
  (match lock c ~payer:Tp.Alice ~amount:10 ~lock_stmt ~timer:5000 with
  | Error e -> Alcotest.failf "lock: %s" (err e)
  | Ok _ -> ());
  let honest =
    match Monet_channel.Party.begin_unlock c.b ~y with
    | Ok [ Monet_channel.Msg.Lock_open p ] -> p
    | Ok _ -> Alcotest.fail "expected one Lock_open"
    | Error e -> Alcotest.failf "begin_unlock: %s" (err e)
  in
  let r =
    Monet_channel.Party.handle c.a ~env:c.env ~rep:(Monet_channel.Report.fresh ())
      (Monet_channel.Msg.Lock_open (tamper honest))
  in
  (c, honest, r)

let presig_bytes p =
  let w = Monet_util.Wire.create_writer () in
  Monet_sig.Lsag.encode_pre w p;
  Monet_util.Hex.encode (Monet_util.Wire.contents w)

let test_lock_open_stores_own_presig () =
  List.iter
    (fun (label, tamper) ->
      let c, honest, r = lock_open_with label tamper in
      (match r with Ok _ -> () | Error e -> Alcotest.failf "%s: %s" label (err e));
      Alcotest.(check string) (label ^ ": stored pre-signature") (presig_bytes honest)
        (presig_bytes c.a.presig);
      (match c.a.presig_history with
      | (s, _, p, _) :: _ when s = c.a.state ->
          Alcotest.(check string) (label ^ ": history entry") (presig_bytes honest)
            (presig_bytes p)
      | _ -> Alcotest.failf "%s: no history entry for the current state" label);
      match cooperative_close c with
      | Error e -> Alcotest.failf "%s: close: %s" label (err e)
      | Ok (payout, _) ->
          Alcotest.(check (pair int int)) (label ^ ": payout") (50, 50)
            (payout.pay_a, payout.pay_b))
    [ ("lo-honest", Fun.id);
      ("lo-c0", fun p -> { p with Monet_sig.Lsag.p_c0 = Sc.add p.Monet_sig.Lsag.p_c0 Sc.one });
      ("lo-pi", fun p -> { p with Monet_sig.Lsag.p_pi = 1000 }) ]

let test_lock_open_truncated_rejected () =
  let _, _, r =
    lock_open_with "lo-trunc" (fun p ->
        { p with Monet_sig.Lsag.p_ss = Array.sub p.Monet_sig.Lsag.p_ss 0 1 })
  in
  match r with
  | Ok _ -> Alcotest.fail "truncated opening accepted"
  | Error (Monet_channel.Errors.Bad_witness _) -> ()
  | Error e -> Alcotest.failf "expected Bad_witness, got %s" (err e)

let test_batch_mode () =
  (* The paper's optimization: precompute a batch, then updates skip
     the per-update NewSW/CVrfy and exchange only ~32-byte messages. *)
  let _, c, _, _, _ = setup "batch" in
  (match exchange_batches c ~n:5 with
  | Error e -> Alcotest.failf "batch: %s" (err e)
  | Ok rep -> Alcotest.(check bool) "batch bytes dominated by proofs" true (rep.bytes > 1000));
  let before = fresh_report () in
  ignore before;
  (match update c ~amount_from_a:5 with
  | Error e -> Alcotest.failf "u1: %s" (err e)
  | Ok rep ->
      (* No VCOF proofs on the wire in batch mode. *)
      Alcotest.(check bool) "small update messages" true (rep.bytes < 2000));
  (match update c ~amount_from_a:5 with Error e -> Alcotest.fail (err e) | Ok _ -> ());
  (match update c ~amount_from_a:(-3) with Error e -> Alcotest.fail (err e) | Ok _ -> ());
  match cooperative_close c with
  | Error e -> Alcotest.failf "close: %s" (err e)
  | Ok (payout, _) ->
      Alcotest.(check int) "alice" 53 payout.pay_a;
      Alcotest.(check int) "bob" 47 payout.pay_b

let test_batch_exhaustion_falls_back () =
  let _, c, _, _, _ = setup "batchx" in
  (match exchange_batches c ~n:2 with Error e -> Alcotest.fail (err e) | Ok _ -> ());
  (match update c ~amount_from_a:1 with Error e -> Alcotest.fail (err e) | Ok _ -> ());
  (match update c ~amount_from_a:1 with Error e -> Alcotest.fail (err e) | Ok _ -> ());
  (* Batch exhausted: falls back to original mode transparently. *)
  (match update c ~amount_from_a:1 with Error e -> Alcotest.failf "fallback: %s" (err e) | Ok _ -> ());
  match cooperative_close c with
  | Error e -> Alcotest.failf "close: %s" (err e)
  | Ok (payout, _) -> Alcotest.(check int) "alice" 57 payout.pay_a


let test_snapshot_restore_continue () =
  (* Establish, update, persist both parties, "restart", keep
     transacting, close: state, balances and history all survive. *)
  let env, c, _, _, _ = setup "snap" in
  (match update c ~amount_from_a:10 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (match update c ~amount_from_a:(-5) with Ok _ -> () | Error e -> Alcotest.fail (err e));
  let snap_a = Monet_channel.Snapshot.save c.a in
  let snap_b = Monet_channel.Snapshot.save c.b in
  Alcotest.(check bool) "snapshots non-trivial" true
    (String.length snap_a > 500 && String.length snap_b > 500);
  match
    Monet_channel.Snapshot.restore_channel ~cfg:test_cfg env ~id:1 ~snap_a ~snap_b
      ~g:(Monet_hash.Drbg.of_int 777)
  with
  | Error e -> Alcotest.failf "restore: %s" (err e)
  | Ok c' ->
      Alcotest.(check int) "state restored" 2 c'.a.state;
      Alcotest.(check int) "alice balance" 55 c'.a.my_balance;
      (match update c' ~amount_from_a:5 with Ok _ -> () | Error e -> Alcotest.fail (err e));
      (match cooperative_close c' with
      | Ok (payout, _) ->
          Alcotest.(check int) "alice payout" 50 payout.pay_a;
          Alcotest.(check int) "bob payout" 50 payout.pay_b
      | Error e -> Alcotest.failf "close after restore: %s" (err e))

let test_snapshot_punishment_survives_restart () =
  (* The whole point of persisting history: a restarted party can still
     punish an old-state cheat. *)
  let env, c, _, _, _ = setup "snapp" in
  (match update c ~amount_from_a:30 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (match update c ~amount_from_a:(-40) with Ok _ -> () | Error e -> Alcotest.fail (err e));
  let snap_a = Monet_channel.Snapshot.save c.a in
  let snap_b = Monet_channel.Snapshot.save c.b in
  let c' =
    match
      Monet_channel.Snapshot.restore_channel ~cfg:test_cfg env ~id:1 ~snap_a ~snap_b
        ~g:(Monet_hash.Drbg.of_int 778)
    with
    | Ok c' -> c'
    | Error e -> Alcotest.failf "restore: %s" (err e)
  in
  let alice_old = my_witness_at c'.a ~state:1 in
  (match submit_old_state c' ~cheater:Tp.Bob ~state:1 ~victim_old_wit:alice_old with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cheat: %s" (err e));
  match watch_and_punish c' ~victim:Tp.Alice with
  | Ok payout -> Alcotest.(check int) "restored party punishes" 70 payout.pay_a
  | Error e -> Alcotest.failf "punish after restore: %s" (err e)

let test_snapshot_rejects_garbage () =
  (match Monet_channel.Snapshot.restore ~cfg:test_cfg ~g:(Monet_hash.Drbg.of_int 1) "nonsense" with
  | Ok _ -> Alcotest.fail "garbage restored"
  | Error _ -> ());
  match Monet_channel.Snapshot.restore ~cfg:test_cfg ~g:(Monet_hash.Drbg.of_int 1)
          ("MONETSNAP1" ^ String.make 10 '\000') with
  | Ok _ -> Alcotest.fail "truncated restored"
  | Error _ -> ()

let test_snapshot_corruption_fuzz () =
  (* Snapshot decoding is total: any truncation and any single-byte
     corruption of a valid snapshot yields [Error _] — never an escaped
     exception, never a silently restored party. (Some corruptions — in
     decoy fields, say — may legitimately still decode; decode crashes
     are what this hunts.) *)
  let _, c, _, _, _ = setup "snapfuzz" in
  (match update c ~amount_from_a:10 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  let snap = Monet_channel.Snapshot.save c.a in
  let g = Monet_hash.Drbg.of_int 4242 in
  let try_restore s =
    match
      Monet_channel.Snapshot.restore ~cfg:test_cfg
        ~g:(Monet_hash.Drbg.of_int 9) s
    with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "corrupt snapshot escaped as exception: %s"
          (Printexc.to_string e)
  in
  (* Every prefix length is a possible torn write. *)
  let n = String.length snap in
  for len = 0 to min n 600 do
    try_restore (String.sub snap 0 len)
  done;
  for _ = 0 to 40 do
    try_restore (String.sub snap 0 (Monet_hash.Drbg.int g n))
  done;
  (* Sampled single-byte bit flips across the whole snapshot. *)
  for _ = 0 to 400 do
    let pos = Monet_hash.Drbg.int g n in
    let bit = Monet_hash.Drbg.int g 8 in
    let b = Bytes.of_string snap in
    Bytes.set b pos
      (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    try_restore (Bytes.to_string b)
  done


let test_splice_in () =
  (* Alice tops the channel up by 30 without closing it: new funding
     output, enlarged capacity, payments continue, final payout
     reflects the splice. *)
  let env, c, _, wa, _ = setup "splice" in
  (match update c ~amount_from_a:10 with Ok _ -> () | Error e -> Alcotest.fail (err e));
  (* Give Alice's wallet a coin to splice in. *)
  let g = Monet_hash.Drbg.split drbg "splice-coin" in
  Monet_xmr.Ledger.ensure_decoys g env.ledger ~amount:30 ~n:20;
  let kp = Monet_sig.Sig_core.gen g in
  let idx = Monet_xmr.Ledger.genesis_output env.ledger { Monet_xmr.Tx.otk = kp.vk; amount = 30 } in
  Monet_xmr.Wallet.adopt wa ~global_index:idx ~keypair:kp ~amount:30;
  match splice_in c ~funder:Tp.Alice ~amount:30 ~wallet:wa with
  | Error e -> Alcotest.failf "splice: %s" (err e)
  | Ok (c', rep) ->
      Alcotest.(check int) "one monero tx" 1 rep.monero_txs;
      Alcotest.(check int) "capacity grew" 130 c'.a.capacity;
      Alcotest.(check int) "alice balance grew" 80 c'.a.my_balance;
      Alcotest.(check bool) "old handle dead" true c.a.closed;
      (* The channel keeps working at the new capacity. *)
      (match update c' ~amount_from_a:70 with Ok _ -> () | Error e -> Alcotest.fail (err e));
      (match cooperative_close c' with
      | Ok (payout, _) ->
          Alcotest.(check int) "alice payout" 10 payout.pay_a;
          Alcotest.(check int) "bob payout" 120 payout.pay_b
      | Error e -> Alcotest.failf "close after splice: %s" (err e))

let tests =
  [
    Alcotest.test_case "establish" `Quick test_establish;
    Alcotest.test_case "update + cooperative close" `Quick test_update_and_cooperative_close;
    Alcotest.test_case "overdraft" `Quick test_overdraft_rejected;
    Alcotest.test_case "update after close" `Quick test_update_after_close_rejected;
    Alcotest.test_case "fungibility" `Quick test_fungibility;
    Alcotest.test_case "dispute responsive" `Quick test_dispute_responsive;
    Alcotest.test_case "dispute unresponsive" `Quick test_dispute_unresponsive_guaranteed_closure;
    Alcotest.test_case "revocation punishment" `Quick test_revocation_punishes_cheater;
    Alcotest.test_case "unwatched cheat mines" `Quick test_cheat_unnoticed_would_win;
    Alcotest.test_case "lock/unlock" `Quick test_lock_unlock;
    Alcotest.test_case "lock cancel" `Quick test_lock_cancel;
    Alcotest.test_case "batch mode" `Quick test_batch_mode;
    Alcotest.test_case "batch exhaustion" `Quick test_batch_exhaustion_falls_back;
    Alcotest.test_case "snapshot restore" `Quick test_snapshot_restore_continue;
    Alcotest.test_case "snapshot punishment" `Quick test_snapshot_punishment_survives_restart;
    Alcotest.test_case "snapshot garbage" `Quick test_snapshot_rejects_garbage;
    Alcotest.test_case "snapshot corruption fuzz" `Quick test_snapshot_corruption_fuzz;
    Alcotest.test_case "splice in" `Quick test_splice_in;
    Alcotest.test_case "lock open stores own presig" `Quick test_lock_open_stores_own_presig;
    Alcotest.test_case "lock open truncated" `Quick test_lock_open_truncated_rejected;
  ]
