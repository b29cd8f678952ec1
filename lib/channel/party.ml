(** The per-party MoChannel protocol state machine.

    A [party] owns exactly one side of a channel. All of its mutation
    happens here, in [handle] (one incoming wire message → zero or
    more outgoing messages) and in the [begin_*] functions that start
    a protocol session locally; no function in this module ever
    touches the counterparty's record. The {!Driver} moves {!Msg}
    values between two parties — synchronously or over the
    discrete-event clock — and the {!Channel} façade sequences
    sessions into the public API.

    Channel establishment gets its own little machine ([est]) because
    it runs before a [party] exists: joint key generation, VCOF root
    escrow, KES deployment and funding are played over the same driver
    and conclude ([est_finish]) with a fully-formed [party]. *)

open Monet_ec
module Tp = Monet_sig.Two_party
module Clras = Monet_cas.Clras

type config = {
  ring_size : int;
  vcof_reps : int option; (* None = production default (80) *)
  kes_tau : int; (* dispute timer, simulated ms *)
  n_escrowers : int;
  escrow_threshold : int;
  precompute : int; (* batch size; 0 = original (per-update) mode *)
}

let default_config =
  {
    ring_size = 11;
    vcof_reps = None;
    kes_tau = 60_000;
    n_escrowers = 5;
    escrow_threshold = 3;
    precompute = 0;
  }

(* Shared environment: the two chains, the escrow service and the
   escrow bulletin board (PVSS dealings are public by construction;
   parties look counterparty dealings up by tag to check bindings). *)
type env = {
  ledger : Monet_xmr.Ledger.t;
  script : Monet_script.Chain.t;
  kes_contract : int;
  kes_deploy_gas : int;
  escrowers : Monet_kes.Escrow.escrower array;
  env_g : Monet_hash.Drbg.t; (* environment randomness (decoy minting etc.) *)
  deals : (string, Monet_pvss.Pvss.dealing) Hashtbl.t;
}

let make_env (g : Monet_hash.Drbg.t) : env =
  let script = Monet_script.Chain.create () in
  let kes_contract, kes_deploy_gas = Monet_kes.Kes_contract.deploy script in
  {
    ledger = Monet_xmr.Ledger.create ();
    script;
    kes_contract;
    kes_deploy_gas;
    escrowers = Monet_kes.Escrow.create_escrowers (Monet_hash.Drbg.split g "escrowers") ~n:8;
    env_g = g;
    deals = Hashtbl.create 16;
  }

(* A precomputed batch: my future pairs and the counterparty's verified
   statements (both legs), indexed by absolute state number. *)
type batch = {
  mutable my_pairs : Monet_vcof.Vcof.pair array;
  mutable their_stmts : Monet_sig.Stmt.t array;
  mutable base_state : int; (* state number of index 0 *)
}

type lock_state = {
  lk_stmt : Monet_sig.Stmt.t; (* the AMHL lock statement *)
  lk_amount : int; (* amount moving from lock-payer to lock-payee *)
  lk_payer_is_alice : bool;
  lk_presig : Monet_sig.Lsag.pre_signature; (* incomplete: needs lock witness too *)
  lk_prefix : string;
  lk_tx : Monet_xmr.Tx.t;
  lk_ring : Point.t array;
  lk_timer : int; (* cascade timer τ for this hop *)
  lk_prev_presig : Monet_sig.Lsag.pre_signature; (* state to fall back to on cancel *)
}

(** What a state-refresh session is for; decides what [handle] applies
    when the session completes. *)
type kind =
  | K_first (* state-0 commitment at establishment / after a splice *)
  | K_update
  | K_lock of {
      kl_stmt : Monet_sig.Stmt.t;
      kl_amount : int;
      kl_payer_is_alice : bool;
      kl_timer : int;
    }
  | K_cancel

(* An in-flight state-refresh session. Balances are the *target*
   values, applied only when the session completes. *)
type pending = {
  pn_kind : kind;
  pn_my_bal : int;
  pn_their_bal : int;
  pn_extra : Monet_sig.Stmt.t option; (* AMHL lock statement, if locking *)
  pn_out_kp : Monet_sig.Sig_core.keypair; (* my fresh output key this state *)
  pn_prev_presig : Monet_sig.Lsag.pre_signature;
  mutable pn_peer_out : Point.t option;
  mutable pn_built : (Monet_xmr.Tx.t * string * Point.t array * int) option;
  mutable pn_nonce : Tp.nonce_secret option;
  mutable pn_their_nonce : Tp.nonce_msg option;
  mutable pn_session : Tp.session option;
  mutable pn_presig : Monet_sig.Lsag.pre_signature option;
  mutable pn_kes_half : Monet_sig.Sig_core.signature option;
}

type phase =
  | Idle
  | Await_stmt of pending (* sent my statement, waiting for theirs *)
  | Await_nonce of pending
  | Await_z of pending
  | Await_kes of pending
  | Await_batch of Monet_vcof.Vcof.pair array (* my pairs, waiting for their entries *)
  | Await_witness (* closure: waiting for their state witness *)

(** Durability hooks, installed by [Recovery.attach] on parties whose
    state is journaled. [Party] stays ignorant of the store layer; it
    only reports the three write-ahead moments that matter:

    - [jh_intent] — a refresh session started (state already bumped);
      a journal tail ending here means the update must be aborted;
    - [jh_precommit] — the point of no return inside a session: the
      full pre-signature is assembled and my KES half is about to go
      out, so the session outcome must be durable {e before} the
      [Kes_sig] reply is released to the wire;
    - [jh_state] — committed state changed outside/at the end of a
      session (refresh completed, lock opened, rollback applied): the
      journal gets a fresh full-state record.

    Hooks run synchronously on the protocol path; a hook that detects
    its backend died (partial-write failpoint) signals the fault plan,
    which mutes this party before any reply escapes. *)
type journal_hook = {
  jh_intent : label:string -> state:int -> unit;
  jh_precommit : pending -> unit;
  jh_state : unit -> unit;
}

type party = {
  cfg : config;
  role : Tp.role;
  g : Monet_hash.Drbg.t;
  joint : Tp.joint;
  clras : Clras.state;
  kes_party : Monet_kes.Kes_client.party;
  kes_instance : int;
  mutable batch : batch option;
  mutable state : int;
  mutable my_balance : int;
  mutable their_balance : int;
  capacity : int;
  funding_outpoint : int;
  mutable commit_tx : Monet_xmr.Tx.t; (* unsigned current commitment *)
  mutable commit_ring : Point.t array;
  mutable presig : Monet_sig.Lsag.pre_signature;
  mutable my_out_kp : Monet_sig.Sig_core.keypair; (* my fresh output key this state *)
  mutable out_keys : Monet_sig.Sig_core.keypair list; (* every per-state output key (old states stay claimable) *)
  mutable kes_commit : Monet_kes.Kes_contract.commit; (* cross-signed latest *)
  my_root : Monet_vcof.Vcof.pair; (* randomized chain root; own old witnesses re-derive from it *)
  (* All pre-signed states, for revocation handling. *)
  mutable presig_history :
    (int * string * Monet_sig.Lsag.pre_signature * Monet_xmr.Tx.t) list;
  mutable lock : lock_state option;
  mutable closed : bool;
  mutable phase : phase;
  mutable extracted : Sc.t option; (* lock witness learned from a Lock_open *)
  mutable journal : journal_hook option; (* durability hooks, if journaled *)
}

let role_label = function Tp.Alice -> "A" | Tp.Bob -> "B"

let journal_event (p : party) (f : journal_hook -> unit) : unit =
  match p.journal with Some h -> f h | None -> ()

let kind_label = function
  | K_first -> "first"
  | K_update -> "update"
  | K_lock _ -> "lock"
  | K_cancel -> "cancel"

(* --- commitment-transaction helpers (deterministic on both sides) --- *)

let shared_seed (j : Tp.joint) ~(state : int) ~(label : string) : string =
  Monet_hash.Hash.tagged "channel-coin"
    [ Point.encode j.Tp.vk; string_of_int state; label ]

(* Both parties must sample the same decoy ring for the commitment
   transaction; they seed the sampler from the shared channel coin. *)
let commit_ring (env : env) (j : Tp.joint) ~(funding_outpoint : int) ~(state : int)
    ~(ring_size : int) : int array * int =
  let coin = Monet_hash.Drbg.create ~seed:(shared_seed j ~state ~label:"ring") in
  Monet_xmr.Ledger.sample_ring coin env.ledger ~real:funding_outpoint ~ring_size

(* Build the (unsigned) state-i commitment transaction. *)
let build_commit_tx (env : env) (j : Tp.joint) ~(funding_outpoint : int)
    ~(capacity : int) ~(state : int) ~(ring_size : int) ~(out_a : Point.t)
    ~(bal_a : int) ~(out_b : Point.t) ~(bal_b : int) :
    Monet_xmr.Tx.t * string * Point.t array * int =
  assert (bal_a + bal_b = capacity);
  let refs, pi = commit_ring env j ~funding_outpoint ~state ~ring_size in
  let ring = Monet_xmr.Ledger.ring_of_refs env.ledger refs in
  let ki = j.Tp.key_image in
  let outputs =
    (if bal_a > 0 then [ { Monet_xmr.Tx.otk = out_a; amount = bal_a } ] else [])
    @ if bal_b > 0 then [ { Monet_xmr.Tx.otk = out_b; amount = bal_b } ] else []
  in
  let tx =
    {
      Monet_xmr.Tx.inputs =
        [
          {
            Monet_xmr.Tx.ring_refs = refs;
            amount = capacity;
            key_image = ki;
            signature = { Monet_sig.Lsag.c0 = Sc.zero; ss = [||]; key_image = ki };
          };
        ];
      outputs;
      fee = 0;
      extra = "";
    }
  in
  (tx, Monet_xmr.Tx.prefix_bytes tx, ring, pi)

(* The KES state digest binds both parties' current statements. Each
   party computes it locally; the statements are symmetric
   (my_stmt/their_stmt swap roles), so both arrive at the same
   digest. [kes_instance] doubles as the channel id. *)
let state_digest (p : party) ~(state : int) : string =
  let mine = p.clras.Clras.my_stmt and theirs = p.clras.Clras.their_stmt in
  let sa, sb = if p.role = Tp.Alice then (mine, theirs) else (theirs, mine) in
  Monet_hash.Hash.tagged "state-digest"
    [
      string_of_int p.kes_instance; string_of_int state;
      Point.encode sa.Monet_sig.Stmt.yg; Point.encode sb.Monet_sig.Stmt.yg;
    ]

(* Orient my/their values into Alice/Bob order for the commitment. *)
let orient_outputs (p : party) (pd : pending) (peer_out : Point.t) =
  match p.role with
  | Tp.Alice ->
      (pd.pn_out_kp.Monet_sig.Sig_core.vk, pd.pn_my_bal, peer_out, pd.pn_their_bal)
  | Tp.Bob ->
      (peer_out, pd.pn_their_bal, pd.pn_out_kp.Monet_sig.Sig_core.vk, pd.pn_my_bal)

(* --- starting a state-refresh session ---------------------------------- *)

(* Advance my CLRAS view of both chains from the precomputed batch,
   party-locally. Returns false when no (usable) batch remains. *)
let advance_from_batch (p : party) : bool =
  match p.batch with
  | Some b ->
      let off = p.state - b.base_state in
      if off >= 1 && off < Array.length b.my_pairs && off <= Array.length b.their_stmts
      then begin
        let st = p.clras in
        st.Clras.mine <- b.my_pairs.(off);
        st.Clras.index <- p.state;
        st.Clras.my_stmt <-
          { Monet_sig.Stmt.yg = b.my_pairs.(off).Monet_vcof.Vcof.stmt;
            yhp = Point.mul b.my_pairs.(off).Monet_vcof.Vcof.wit p.joint.Tp.hp };
        st.Clras.their_index <- p.state;
        st.Clras.their_stmt <- b.their_stmts.(off - 1);
        true
      end
      else false
  | None -> false

let fresh_out_key (p : party) : Monet_sig.Sig_core.keypair =
  let kp = Monet_sig.Sig_core.gen p.g in
  p.my_out_kp <- kp;
  p.out_keys <- kp :: p.out_keys;
  kp

(** Start a state refresh toward balances (mine/theirs). Bumps my
    state (except for the very first commitment), advances my
    statement view, and emits either a statement announcement
    (original mode) or directly the signing nonce (batched mode /
    first commitment, where statements are already in place). *)
let begin_refresh (p : party) ~(kind : kind) ~(my_bal : int) ~(their_bal : int)
    ~(extra : Monet_sig.Stmt.t option) : (Msg.t list, Errors.t) result =
  match p.phase with
  | Idle ->
      let first = match kind with K_first -> true | _ -> false in
      let prev_presig = p.presig in
      if not first then p.state <- p.state + 1;
      let statements_ready = first || advance_from_batch p in
      let mk_pending ~sm_sent kp nonce =
        ignore sm_sent;
        {
          pn_kind = kind; pn_my_bal = my_bal; pn_their_bal = their_bal;
          pn_extra = extra; pn_out_kp = kp; pn_prev_presig = prev_presig;
          pn_peer_out = None; pn_built = None; pn_nonce = nonce;
          pn_their_nonce = None; pn_session = None; pn_presig = None;
          pn_kes_half = None;
        }
      in
      if statements_ready then begin
        let kp = fresh_out_key p in
        let nonce = Tp.nonce p.g p.joint in
        let pd = mk_pending ~sm_sent:false kp (Some nonce) in
        p.phase <- Await_nonce pd;
        journal_event p (fun h ->
            h.jh_intent ~label:(kind_label kind) ~state:p.state);
        Ok
          [ Msg.Commit_nonce
              { nonce = nonce.Tp.ns_msg; out_vk = Some kp.Monet_sig.Sig_core.vk } ]
      end
      else begin
        (* Original mode: NewSW and announce the next statement. *)
        let sm = Clras.advance p.g p.clras in
        let kp = fresh_out_key p in
        let pd = mk_pending ~sm_sent:true kp None in
        p.phase <- Await_stmt pd;
        journal_event p (fun h ->
            h.jh_intent ~label:(kind_label kind) ~state:p.state);
        Ok [ Msg.Stmt_announce { sm; out_vk = kp.Monet_sig.Sig_core.vk } ]
      end
  | _ -> Error (Errors.Bad_state "a protocol session is already in flight")

let begin_first (p : party) : (Msg.t list, Errors.t) result =
  begin_refresh p ~kind:K_first ~my_bal:p.my_balance ~their_bal:p.their_balance
    ~extra:None

(** Start an update moving [amount_from_a] (Alice → Bob; negative for
    the other direction). *)
let begin_update (p : party) ~(amount_from_a : int) : (Msg.t list, Errors.t) result =
  let delta = if p.role = Tp.Alice then amount_from_a else -amount_from_a in
  begin_refresh p ~kind:K_update ~my_bal:(p.my_balance - delta)
    ~their_bal:(p.their_balance + delta) ~extra:None

(** Start a lock session: the refresh signs under base ⊕ lock
    statement, and the resulting pre-signature stays incomplete. *)
let begin_lock (p : party) ~(payer : Tp.role) ~(amount : int)
    ~(lock_stmt : Monet_sig.Stmt.t) ~(timer : int) : (Msg.t list, Errors.t) result =
  let payer_is_alice = payer = Tp.Alice in
  let delta =
    if p.role = payer then amount else -amount
  in
  begin_refresh p
    ~kind:(K_lock { kl_stmt = lock_stmt; kl_amount = amount;
                    kl_payer_is_alice = payer_is_alice; kl_timer = timer })
    ~my_bal:(p.my_balance - delta) ~their_bal:(p.their_balance + delta)
    ~extra:(Some lock_stmt)

(** Start a cooperative lock cancellation: refresh to state +1 with
    the pre-lock balances. *)
let begin_cancel (p : party) : (Msg.t list, Errors.t) result =
  match p.lock with
  | None -> Error Errors.No_pending_lock
  | Some lk ->
      let payer_is_me = lk.lk_payer_is_alice = (p.role = Tp.Alice) in
      let delta = if payer_is_me then lk.lk_amount else -lk.lk_amount in
      begin_refresh p ~kind:K_cancel ~my_bal:(p.my_balance + delta)
        ~their_bal:(p.their_balance - delta) ~extra:None

(** The payee opens a pending lock with witness [y]: adapt the locked
    pre-signature locally and send the completed pre-signature to the
    payer (who extracts [y] from it). *)
let begin_unlock (p : party) ~(y : Sc.t) : (Msg.t list, Errors.t) result =
  match p.lock with
  | None -> Error Errors.No_pending_lock
  | Some lk ->
      if not (Point.equal lk.lk_stmt.Monet_sig.Stmt.yg (Point.mul_base y)) then
        Error (Errors.Bad_witness "lock witness does not open the lock statement")
      else begin
        let completed = Monet_sig.Lsag.partial_adapt lk.lk_presig ~y in
        p.presig <- completed;
        p.presig_history <-
          (p.state, lk.lk_prefix, completed, lk.lk_tx)
          :: List.filter (fun (s, _, _, _) -> s <> p.state) p.presig_history;
        p.lock <- None;
        journal_event p (fun h -> h.jh_state ());
        Ok [ Msg.Lock_open completed ]
      end

(** Enter the witness-reveal leg of a (cooperative or responsive
    dispute) closure. *)
let begin_close (p : party) : Msg.t list =
  p.phase <- Await_witness;
  [ Msg.Witness_reveal (Clras.my_witness p.clras) ]

(* --- precomputed batches (the paper's optimization, Table I) ----------- *)

(* Precompute [n] future pairs for [p], returning the announcement. *)
let precompute_batch (p : party) ~(n : int) :
    Monet_vcof.Vcof.pair array * Msg.batch_entry array =
  let pp = p.clras.Clras.pp in
  let current = p.clras.Clras.mine in
  let pairs = Array.make (n + 1) current in
  let entries =
    Array.init n (fun i ->
        let next, step_proof =
          Monet_vcof.Vcof.new_sw ?reps:p.cfg.vcof_reps p.g pairs.(i) ~pp
        in
        pairs.(i + 1) <- next;
        let be_stmt =
          { Monet_sig.Stmt.yg = next.Monet_vcof.Vcof.stmt;
            yhp = Point.mul next.Monet_vcof.Vcof.wit p.joint.Tp.hp }
        in
        let be_leg_proof =
          Monet_sigma.Dleq.prove ~context:"clras-legs" p.g ~x:next.Monet_vcof.Vcof.wit
            ~g1:Point.base ~g2:p.joint.Tp.hp
        in
        { Msg.be_stmt; be_leg_proof; be_step_proof = step_proof })
  in
  p.phase <- Await_batch pairs;
  (pairs, entries)

(* Verify a counterparty's batch announcement against their current
   statement, returning the accepted statements. *)
let verify_batch (p : party) (entries : Msg.batch_entry array) :
    (Monet_sig.Stmt.t array, string) result =
  let pp = p.clras.Clras.pp in
  let ok = ref true and err = ref "" in
  Array.iteri
    (fun i (e : Msg.batch_entry) ->
      if
        !ok
        && not
             (Monet_sigma.Dleq.verify ~context:"clras-legs" ~g1:Point.base
                ~h1:e.be_stmt.Monet_sig.Stmt.yg ~g2:p.joint.Tp.hp
                ~h2:e.be_stmt.Monet_sig.Stmt.yhp e.be_leg_proof)
      then begin
        ok := false;
        err := Printf.sprintf "batch entry %d: legs inconsistent" i
      end)
    entries;
  if not !ok then Error !err
  else begin
    (* Entries chain from our view of their current statement; verify
       all consecutiveness proofs in one batched CVrfy (a single MSM).
       On failure, re-verify stepwise only to name the culprit. *)
    let prev i =
      if i = 0 then p.clras.Clras.their_stmt.Monet_sig.Stmt.yg
      else entries.(i - 1).Msg.be_stmt.Monet_sig.Stmt.yg
    in
    let steps =
      Array.mapi
        (fun i (e : Msg.batch_entry) ->
          (prev i, e.be_stmt.Monet_sig.Stmt.yg, e.be_step_proof))
        entries
    in
    if Monet_vcof.Vcof.c_vrfy_batch ~pp steps then
      Ok (Array.map (fun (e : Msg.batch_entry) -> e.be_stmt) entries)
    else begin
      let bad = ref (Array.length entries - 1) in
      let i = ref 0 in
      let searching = ref true in
      while !searching && !i < Array.length steps do
        let pv, nx, proof = steps.(!i) in
        if not (Monet_vcof.Vcof.c_vrfy ~pp ~prev:pv ~next:nx proof) then begin
          bad := !i;
          searching := false
        end;
        incr i
      done;
      Error (Printf.sprintf "batch entry %d: not consecutive" !bad)
    end
  end

(* --- the message handler ----------------------------------------------- *)

let req name = function
  | Some x -> Ok x
  | None -> Error (Errors.Bad_state ("session missing " ^ name))

let ( let* ) r f = match r with Ok x -> f x | Error e -> Error (e : Errors.t)

(* Session completion: install the new commitment, apply target
   balances, and run the kind-specific effects. *)
let complete_refresh (p : party) (pd : pending) ~(their_half : Monet_sig.Sig_core.signature) :
    (Msg.t list, Errors.t) result =
  let* my_half = req "kes half" pd.pn_kes_half in
  let* presig = req "presignature" pd.pn_presig in
  let* tx, prefix, ring, _pi = req "commitment" pd.pn_built in
  let digest = state_digest p ~state:p.state in
  let sig_a, sig_b =
    if p.role = Tp.Alice then (my_half, their_half) else (their_half, my_half)
  in
  p.kes_commit <-
    Monet_kes.Kes_client.assemble_commit ~state:p.state ~digest ~sig_a ~sig_b;
  p.commit_tx <- tx;
  p.commit_ring <- ring;
  p.presig <- presig;
  p.presig_history <- (p.state, prefix, presig, tx) :: p.presig_history;
  p.my_balance <- pd.pn_my_bal;
  p.their_balance <- pd.pn_their_bal;
  (match pd.pn_kind with
  | K_lock kl ->
      p.lock <-
        Some
          {
            lk_stmt = kl.kl_stmt; lk_amount = kl.kl_amount;
            lk_payer_is_alice = kl.kl_payer_is_alice; lk_presig = presig;
            lk_prefix = prefix; lk_tx = tx; lk_ring = ring; lk_timer = kl.kl_timer;
            lk_prev_presig = pd.pn_prev_presig;
          }
  | K_cancel -> p.lock <- None
  | K_first | K_update -> ());
  p.phase <- Idle;
  journal_event p (fun h -> h.jh_state ());
  Ok []

(** Feed one incoming wire message to the party. Returns the replies
    to send back. Only [p]'s own state is ever mutated. *)
let handle (p : party) ~(env : env) ~(rep : Report.t) (m : Msg.t) :
    (Msg.t list, Errors.t) result =
  ignore rep;
  match (p.phase, m) with
  | Await_stmt pd, Msg.Stmt_announce { sm; out_vk } -> (
      match Clras.receive p.clras sm with
      | Error e -> Error (Errors.Bad_proof e)
      | Ok () ->
          pd.pn_peer_out <- Some out_vk;
          let nonce = Tp.nonce p.g p.joint in
          pd.pn_nonce <- Some nonce;
          p.phase <- Await_nonce pd;
          Ok [ Msg.Commit_nonce { nonce = nonce.Tp.ns_msg; out_vk = None } ])
  | Await_nonce pd, Msg.Commit_nonce { nonce; out_vk } ->
      (match out_vk with Some v -> pd.pn_peer_out <- Some v | None -> ());
      let* peer_out = req "counterparty output key" pd.pn_peer_out in
      let* my_nonce = req "local nonce" pd.pn_nonce in
      let out_a, bal_a, out_b, bal_b = orient_outputs p pd peer_out in
      let tx, prefix, ring, pi =
        build_commit_tx env p.joint ~funding_outpoint:p.funding_outpoint
          ~capacity:p.capacity ~state:p.state ~ring_size:p.cfg.ring_size ~out_a
          ~bal_a ~out_b ~bal_b
      in
      pd.pn_built <- Some (tx, prefix, ring, pi);
      let base = Clras.joint_stmt p.clras in
      let stmt =
        match pd.pn_extra with
        | None -> base
        | Some s -> Monet_sig.Stmt.combine base s
      in
      (match
         Tp.session p.joint ~ring ~pi ~msg:prefix ~stmt ~mine:my_nonce ~theirs:nonce
       with
      | Error e -> Error (Errors.Bad_proof e)
      | Ok sess ->
          pd.pn_their_nonce <- Some nonce;
          pd.pn_session <- Some sess;
          let z = Tp.z_share p.joint sess my_nonce in
          p.phase <- Await_z pd;
          Ok [ Msg.Z_share z ])
  | Await_z pd, Msg.Z_share z ->
      let* sess = req "session" pd.pn_session in
      let* my_nonce = req "local nonce" pd.pn_nonce in
      let* their_nonce = req "counterparty nonce" pd.pn_their_nonce in
      if not (Tp.check_z_share p.joint sess ~their_nonce ~z) then
        Error (Errors.Bad_proof "counterparty response share failed verification")
      else begin
        let my_z = Tp.z_share p.joint sess my_nonce in
        let presig = Tp.assemble sess ~my_z ~their_z:z in
        pd.pn_presig <- Some presig;
        let digest = state_digest p ~state:p.state in
        let half =
          Monet_kes.Kes_client.sign_commit_half p.g p.kes_party ~id:p.kes_instance
            ~state:p.state ~digest
        in
        pd.pn_kes_half <- Some half;
        p.phase <- Await_kes pd;
        (* WAL: the session outcome (and my KES half) must be durable
           before the Kes_sig below reaches the wire — once the
           counterparty holds both halves the new state is live. *)
        journal_event p (fun h -> h.jh_precommit pd);
        Ok [ Msg.Kes_sig half ]
      end
  | Await_kes pd, Msg.Kes_sig their_half -> complete_refresh p pd ~their_half
  | Await_batch my_pairs, Msg.Batch_announce entries -> (
      match verify_batch p entries with
      | Error e -> Error (Errors.Bad_proof e)
      | Ok their_stmts ->
          p.batch <- Some { my_pairs; their_stmts; base_state = p.state };
          p.phase <- Idle;
          Ok [])
  | Await_witness, Msg.Witness_reveal w ->
      if not (Clras.witness_opens p.clras w) then
        Error
          (Errors.Bad_witness "counterparty witness does not open its statement")
      else begin
        p.phase <- Idle;
        Ok []
      end
  | Idle, Msg.Lock_open completed -> (
      match p.lock with
      | None -> Error (Errors.Bad_state "unexpected lock opening")
      | Some lk ->
          (* The opening only carries the witness: it is read at the
             lock's own real index, and the stored pre-signature is the
             lock's, adapted here — never the received record. *)
          let locked = lk.lk_presig in
          let n = Array.length locked.Monet_sig.Lsag.p_ss and pi = locked.p_pi in
          if Array.length completed.Monet_sig.Lsag.p_ss <> n || pi < 0 || pi >= n then
            Error (Errors.Bad_witness "lock opening does not match the locked pre-signature")
          else
            let extracted = Sc.sub completed.p_ss.(pi) locked.p_ss.(pi) in
            if not (Point.equal lk.lk_stmt.Monet_sig.Stmt.yg (Point.mul_base extracted))
            then Error (Errors.Bad_witness "extracted witness does not open the lock")
            else begin
              let opened = Monet_sig.Lsag.partial_adapt locked ~y:extracted in
              p.extracted <- Some extracted;
              p.presig <- opened;
              p.presig_history <-
                (p.state, lk.lk_prefix, opened, lk.lk_tx)
                :: List.filter (fun (s, _, _, _) -> s <> p.state) p.presig_history;
              p.lock <- None;
              journal_event p (fun h -> h.jh_state ());
              Ok []
            end)
  | Await_stmt _, Msg.Commit_nonce _ | Await_nonce _, Msg.Stmt_announce _ ->
      Error (Errors.Bad_state "batch desync between parties")
  | _, m -> Error (Errors.Bad_state ("unexpected message: " ^ Msg.label m))

(* --- session checkpoints (fault recovery) ------------------------------- *)

let is_idle (p : party) : bool = p.phase = Idle

(** Everything a protocol session may mutate, captured so that a
    timed-out session can be rolled back as if it never started. The
    CLRAS indices/statements must be part of the set: [begin_refresh]
    bumps the state and advances the chain view before any message
    flows, and witness derivation (disputes, revocation) is keyed on
    them. Witnesses themselves re-derive from the immutable roots, so
    rolling the indices back keeps every later derivation consistent. *)
type checkpoint = {
  ck_state : int;
  ck_my_balance : int;
  ck_their_balance : int;
  ck_commit_tx : Monet_xmr.Tx.t;
  ck_commit_ring : Point.t array;
  ck_presig : Monet_sig.Lsag.pre_signature;
  ck_my_out_kp : Monet_sig.Sig_core.keypair;
  ck_out_keys : Monet_sig.Sig_core.keypair list;
  ck_kes_commit : Monet_kes.Kes_contract.commit;
  ck_presig_history :
    (int * string * Monet_sig.Lsag.pre_signature * Monet_xmr.Tx.t) list;
  ck_lock : lock_state option;
  ck_phase : phase;
  ck_extracted : Sc.t option;
  ck_batch : batch option;
  ck_cl_index : int;
  ck_cl_mine : Monet_vcof.Vcof.pair;
  ck_cl_my_stmt : Monet_sig.Stmt.t;
  ck_cl_their_index : int;
  ck_cl_their_stmt : Monet_sig.Stmt.t;
}

let checkpoint (p : party) : checkpoint =
  let st = p.clras in
  {
    ck_state = p.state; ck_my_balance = p.my_balance;
    ck_their_balance = p.their_balance; ck_commit_tx = p.commit_tx;
    ck_commit_ring = p.commit_ring; ck_presig = p.presig;
    ck_my_out_kp = p.my_out_kp; ck_out_keys = p.out_keys;
    ck_kes_commit = p.kes_commit; ck_presig_history = p.presig_history;
    ck_lock = p.lock; ck_phase = p.phase; ck_extracted = p.extracted;
    ck_batch = p.batch; ck_cl_index = st.Clras.index;
    ck_cl_mine = st.Clras.mine; ck_cl_my_stmt = st.Clras.my_stmt;
    ck_cl_their_index = st.Clras.their_index;
    ck_cl_their_stmt = st.Clras.their_stmt;
  }

let rollback (p : party) (ck : checkpoint) : unit =
  p.state <- ck.ck_state;
  p.my_balance <- ck.ck_my_balance;
  p.their_balance <- ck.ck_their_balance;
  p.commit_tx <- ck.ck_commit_tx;
  p.commit_ring <- ck.ck_commit_ring;
  p.presig <- ck.ck_presig;
  p.my_out_kp <- ck.ck_my_out_kp;
  p.out_keys <- ck.ck_out_keys;
  p.kes_commit <- ck.ck_kes_commit;
  p.presig_history <- ck.ck_presig_history;
  p.lock <- ck.ck_lock;
  p.phase <- ck.ck_phase;
  p.extracted <- ck.ck_extracted;
  p.batch <- ck.ck_batch;
  let st = p.clras in
  st.Clras.index <- ck.ck_cl_index;
  st.Clras.mine <- ck.ck_cl_mine;
  st.Clras.my_stmt <- ck.ck_cl_my_stmt;
  st.Clras.their_index <- ck.ck_cl_their_index;
  st.Clras.their_stmt <- ck.ck_cl_their_stmt

(* --- establishment ------------------------------------------------------ *)

type est_phase = E_key | E_ki | E_info | E_fund | E_done

type est = {
  e_cfg : config;
  e_role : Tp.role;
  e_g : Monet_hash.Drbg.t;
  e_id : int;
  e_wallet : Monet_xmr.Wallet.t;
  e_bal_a : int;
  e_bal_b : int;
  e_sk : Sc.t;
  e_km : Tp.key_msg;
  mutable e_phase : est_phase;
  mutable e_their_km : Tp.key_msg option;
  mutable e_my_ki : Tp.ki_msg option;
  mutable e_joint : Tp.joint option;
  mutable e_root : Monet_vcof.Vcof.pair option; (* randomized chain root *)
  mutable e_clras : Clras.state option;
  mutable e_kes_party : Monet_kes.Kes_client.party option;
  mutable e_their_kes_vk : Point.t option;
  mutable e_my_contrib : Msg.contrib option;
  mutable e_their_contrib : Msg.contrib option;
  mutable e_plan : (Monet_xmr.Wallet.owned * int array * int * Point.t) list;
  mutable e_skeleton : (Monet_xmr.Tx.t * string) option;
  mutable e_my_sigs : Monet_sig.Lsag.signature list;
}

let est_create (cfg : config) (role : Tp.role) (g : Monet_hash.Drbg.t) ~(id : int)
    ~(wallet : Monet_xmr.Wallet.t) ~(bal_a : int) ~(bal_b : int) : est =
  let sk, km = Tp.key_msg g in
  {
    e_cfg = cfg; e_role = role; e_g = g; e_id = id; e_wallet = wallet;
    e_bal_a = bal_a; e_bal_b = bal_b; e_sk = sk; e_km = km; e_phase = E_key;
    e_their_km = None; e_my_ki = None; e_joint = None; e_root = None;
    e_clras = None; e_kes_party = None; e_their_kes_vk = None;
    e_my_contrib = None; e_their_contrib = None; e_plan = []; e_skeleton = None;
    e_my_sigs = [];
  }

let est_begin (e : est) : Msg.t list = [ Msg.Key_share e.e_km ]

let my_funding_target (e : est) =
  if e.e_role = Tp.Alice then e.e_bal_a else e.e_bal_b

(* Select coins and build my funding contribution: ring refs, key
   images and change outputs go on the wire; the ring secrets stay in
   [e_plan] for signing. *)
let build_contrib (e : est) (env : env) : (Msg.contrib, Errors.t) result =
  let module W = Monet_xmr.Wallet in
  let module L = Monet_xmr.Ledger in
  let w = e.e_wallet in
  let target = my_funding_target e in
  let rec go acc total = function
    | _ when total >= target -> Some (acc, total)
    | [] -> None
    | o :: rest -> go (o :: acc) (total + o.W.amount) rest
  in
  match go [] 0 w.W.owned with
  | None ->
      Error
        (Errors.Insufficient_funds
           (Printf.sprintf "balance for funding (%s)" (role_label e.e_role)))
  | Some (coins, total) ->
      let plan =
        List.map
          (fun (o : W.owned) ->
            let refs, pi =
              L.sample_ring w.W.g env.ledger ~real:o.W.global_index
                ~ring_size:w.W.ring_size
            in
            let ki =
              Monet_sig.Lsag.key_image ~sk:o.W.keypair.Monet_sig.Sig_core.sk
                ~vk:o.W.keypair.vk
            in
            (o, refs, pi, ki))
          coins
      in
      e.e_plan <- plan;
      let fc_change =
        if total > target then begin
          let kp = Monet_sig.Sig_core.gen w.W.g in
          w.W.pending_keys <- kp :: w.W.pending_keys;
          [ { Monet_xmr.Tx.otk = kp.Monet_sig.Sig_core.vk; amount = total - target } ]
        end
        else []
      in
      let fc_inputs =
        List.map (fun ((o : W.owned), refs, _, ki) -> (refs, o.W.amount, ki)) plan
      in
      Ok { Msg.fc_inputs; fc_change }

(* The funding skeleton both parties derive from the two
   contributions: Alice's inputs then Bob's; the joint output first,
   then Alice's change, then Bob's. *)
let funding_skeleton (e : est) (joint_vk : Point.t) ~(mine : Msg.contrib)
    ~(theirs : Msg.contrib) : Monet_xmr.Tx.t * string =
  let module T = Monet_xmr.Tx in
  let ca, cb = if e.e_role = Tp.Alice then (mine, theirs) else (theirs, mine) in
  let inputs =
    List.map
      (fun (refs, amount, ki) ->
        { T.ring_refs = refs; amount; key_image = ki;
          signature = { Monet_sig.Lsag.c0 = Sc.zero; ss = [||]; key_image = ki } })
      (ca.Msg.fc_inputs @ cb.Msg.fc_inputs)
  in
  let outputs =
    ({ T.otk = joint_vk; amount = e.e_bal_a + e.e_bal_b } :: ca.Msg.fc_change)
    @ cb.Msg.fc_change
  in
  let skeleton = { T.inputs; outputs; fee = 0; extra = "" } in
  (skeleton, T.prefix_bytes skeleton)

let est_handle (e : est) ~(env : env) ~(rep : Report.t) (m : Msg.t) :
    (Msg.t list, Errors.t) result =
  match (e.e_phase, m) with
  | E_key, Msg.Key_share theirs -> (
      match Tp.ki_msg e.e_g ~sk:e.e_sk ~my:e.e_km ~theirs with
      | Error err -> Error (Errors.Bad_proof err)
      | Ok ki ->
          e.e_their_km <- Some theirs;
          e.e_my_ki <- Some ki;
          e.e_phase <- E_ki;
          Ok [ Msg.Key_image_share ki ])
  | E_ki, Msg.Key_image_share their_ki ->
      let* their_km = req "counterparty key share" e.e_their_km in
      let* my_ki = req "key-image share" e.e_my_ki in
      (match
         Tp.finish_jgen ~role:e.e_role ~sk:e.e_sk ~my:e.e_km ~theirs:their_km
           ~my_ki ~their_ki
       with
      | Error err -> Error (Errors.Bad_proof err)
      | Ok joint ->
          e.e_joint <- Some joint;
          (* VCOF root; the *pre-randomization* root goes to escrow.
             The channel-private randomizer derives from the 2-party
             DH secret, so both parties (and nobody else) can compute
             either side's. *)
          let root = Monet_vcof.Vcof.sw_gen e.e_g in
          let dh = Point.mul e.e_sk joint.Tp.their_vk in
          let r_mine =
            Sc.of_hash "chan-randomizer"
              [ Point.encode dh; string_of_int e.e_id; role_label e.e_role ]
          in
          let chain_root = Monet_vcof.Vcof.randomize root ~r:r_mine in
          e.e_root <- Some chain_root;
          let pks = Monet_kes.Escrow.public_keys env.escrowers in
          let deal =
            Monet_pvss.Pvss.deal e.e_g ~secret:root.Monet_vcof.Vcof.wit
              ~t:e.e_cfg.escrow_threshold
              ~escrower_pks:(Array.sub pks 0 e.e_cfg.n_escrowers)
          in
          let tag =
            Monet_kes.Escrow.tag ~instance:e.e_id ~party:(role_label e.e_role)
          in
          (match Monet_kes.Escrow.distribute env.escrowers ~tag deal with
          | Error err -> Error (Errors.Escrow err)
          | Ok () ->
              Hashtbl.replace env.deals tag deal;
              let clras, stmt0 =
                Clras.init ?reps:e.e_cfg.vcof_reps ~root:chain_root e.e_g joint
              in
              e.e_clras <- Some clras;
              let kes_party =
                Monet_kes.Kes_client.make_party e.e_g
                  ~addr:
                    (Printf.sprintf "0x%s%d" (role_label e.e_role) e.e_id)
              in
              e.e_kes_party <- Some kes_party;
              let* contrib = build_contrib e env in
              e.e_my_contrib <- Some contrib;
              e.e_phase <- E_info;
              Ok
                [ Msg.Establish_info
                    {
                      ei_stmt = stmt0;
                      ei_kes_vk = kes_party.Monet_kes.Kes_client.p_kp.vk;
                      ei_kes_addr = kes_party.Monet_kes.Kes_client.p_addr;
                      ei_contrib = contrib;
                    } ]))
  | E_info, Msg.Establish_info info ->
      let* clras = req "clras state" e.e_clras in
      let* joint = req "joint key" e.e_joint in
      let* my_contrib = req "funding contribution" e.e_my_contrib in
      let* kes_party = req "kes party" e.e_kes_party in
      (match Clras.receive clras info.Msg.ei_stmt with
      | Error err -> Error (Errors.Bad_proof err)
      | Ok () ->
          (* Check the counterparty's escrow binds the (de-randomized)
             chain root it announced. *)
          let their_role = if e.e_role = Tp.Alice then Tp.Bob else Tp.Alice in
          let their_tag =
            Monet_kes.Escrow.tag ~instance:e.e_id ~party:(role_label their_role)
          in
          (match Hashtbl.find_opt env.deals their_tag with
          | None -> Error (Errors.Escrow "counterparty escrow dealing not published")
          | Some their_deal ->
              let dh = Point.mul e.e_sk joint.Tp.their_vk in
              let r_theirs =
                Sc.of_hash "chan-randomizer"
                  [ Point.encode dh; string_of_int e.e_id; role_label their_role ]
              in
              if
                not
                  (Point.equal
                     (Point.add
                        (Monet_pvss.Pvss.secret_commitment their_deal)
                        (Point.mul_base r_theirs))
                     info.Msg.ei_stmt.Clras.sm_stmt.Monet_sig.Stmt.yg)
              then Error (Errors.Escrow "escrow does not bind the announced chain root")
              else begin
                e.e_their_kes_vk <- Some info.Msg.ei_kes_vk;
                e.e_their_contrib <- Some info.Msg.ei_contrib;
                (* Alice deploys the KES instance (Bob acknowledges
                   with add_ok once the deployment is visible, on the
                   next leg). *)
                let* () =
                  if e.e_role = Tp.Alice then begin
                    let my_tag =
                      Monet_kes.Escrow.tag ~instance:e.e_id ~party:"A"
                    in
                    let* my_deal =
                      req "own escrow dealing" (Hashtbl.find_opt env.deals my_tag)
                    in
                    let digest = Monet_kes.Escrow.escrow_digest my_deal their_deal in
                    let r1 =
                      Monet_kes.Kes_client.call_deploy_instance env.script
                        ~contract:env.kes_contract kes_party ~id:e.e_id
                        ~vk_a:kes_party.Monet_kes.Kes_client.p_kp.vk
                        ~vk_b:info.Msg.ei_kes_vk ~escrow_digest:digest
                    in
                    Report.script rep r1;
                    match r1.Monet_script.Chain.r_ok with
                    | Error err -> Error (Errors.Kes err)
                    | Ok _ -> Ok ()
                  end
                  else Ok ()
                in
                (* Build and sign the funding skeleton. *)
                let skeleton, prefix =
                  funding_skeleton e joint.Tp.vk ~mine:my_contrib
                    ~theirs:info.Msg.ei_contrib
                in
                e.e_skeleton <- Some (skeleton, prefix);
                let module W = Monet_xmr.Wallet in
                let sigs =
                  List.map
                    (fun ((o : W.owned), refs, pi, _) ->
                      let ring = Monet_xmr.Ledger.ring_of_refs env.ledger refs in
                      Monet_sig.Lsag.sign e.e_wallet.W.g ~ring ~pi
                        ~sk:o.W.keypair.Monet_sig.Sig_core.sk ~msg:prefix)
                    e.e_plan
                in
                e.e_my_sigs <- sigs;
                let spent = List.map (fun (o, _, _, _) -> o) e.e_plan in
                e.e_wallet.W.owned <-
                  List.filter
                    (fun o -> not (List.memq o spent))
                    e.e_wallet.W.owned;
                e.e_phase <- E_fund;
                Ok [ Msg.Funding_sigs sigs ]
              end))
  | E_fund, Msg.Funding_sigs their_sigs ->
      let* skeleton, _prefix = req "funding skeleton" e.e_skeleton in
      let* kes_party = req "kes party" e.e_kes_party in
      let module T = Monet_xmr.Tx in
      let sigs_a, sigs_b =
        if e.e_role = Tp.Alice then (e.e_my_sigs, their_sigs)
        else (their_sigs, e.e_my_sigs)
      in
      let all_sigs = sigs_a @ sigs_b in
      if List.length all_sigs <> List.length skeleton.T.inputs then
        Error (Errors.Bad_state "funding signature count mismatch")
      else begin
        let inputs =
          List.map2
            (fun (i : T.input) sg -> { i with T.signature = sg })
            skeleton.T.inputs all_sigs
        in
        let ftx = { skeleton with T.inputs } in
        e.e_phase <- E_done;
        if e.e_role = Tp.Alice then begin
          (* Alice broadcasts the funding transaction. *)
          match Monet_xmr.Ledger.submit env.ledger ftx with
          | Error err -> Error (Errors.Chain ("funding: " ^ err))
          | Ok () ->
              ignore (Monet_xmr.Ledger.mine env.ledger);
              rep.Report.monero_txs <- rep.Report.monero_txs + 1;
              Ok []
        end
        else begin
          (* Bob acknowledges the (by now deployed) KES instance. *)
          let r2 =
            Monet_kes.Kes_client.call_add_ok env.script ~contract:env.kes_contract
              kes_party ~id:e.e_id
          in
          Report.script rep r2;
          match r2.Monet_script.Chain.r_ok with
          | Error err -> Error (Errors.Kes err)
          | Ok _ -> Ok []
        end
      end
  | _, m -> Error (Errors.Bad_state ("unexpected message: " ^ Msg.label m))

(** Conclude establishment: locate the funding outpoint on the ledger
    and produce the party. The state-0 commitment session follows
    separately (the [K_first] refresh). *)
let est_finish (e : est) (env : env) : (party, Errors.t) result =
  if e.e_phase <> E_done then Error (Errors.Bad_state "establishment incomplete")
  else
    let* joint = req "joint key" e.e_joint in
    let* clras = req "clras state" e.e_clras in
    let* kes_party = req "kes party" e.e_kes_party in
    let* my_root = req "chain root" e.e_root in
    let funding_outpoint = ref (-1) in
    for i = 0 to Monet_xmr.Ledger.output_count env.ledger - 1 do
      match Monet_xmr.Ledger.get_output env.ledger i with
      | Some entry
        when Point.equal entry.Monet_xmr.Ledger.out.Monet_xmr.Tx.otk joint.Tp.vk ->
          funding_outpoint := i
      | _ -> ()
    done;
    if !funding_outpoint < 0 then Error (Errors.Chain "funding output not found")
    else begin
      let dummy_kp = Monet_sig.Sig_core.gen e.e_g in
      let dummy_commit =
        { Monet_kes.Kes_contract.cm_state = 0; cm_digest = "";
          cm_sig_a = { Monet_sig.Sig_core.rp = Monet_ec.Point.identity; s = Sc.zero };
          cm_sig_b = { Monet_sig.Sig_core.rp = Monet_ec.Point.identity; s = Sc.zero } }
      in
      let dummy_tx = { Monet_xmr.Tx.inputs = []; outputs = []; fee = 0; extra = "" } in
      let dummy_presig =
        { Monet_sig.Lsag.p_c0 = Sc.zero; p_ss = [||];
          p_key_image = joint.Tp.key_image; p_pi = 0 }
      in
      Ok
        {
          cfg = e.e_cfg; role = e.e_role; g = e.e_g; joint; clras; kes_party;
          kes_instance = e.e_id; my_root; batch = None; state = 0;
          my_balance = (if e.e_role = Tp.Alice then e.e_bal_a else e.e_bal_b);
          their_balance = (if e.e_role = Tp.Alice then e.e_bal_b else e.e_bal_a);
          capacity = e.e_bal_a + e.e_bal_b; funding_outpoint = !funding_outpoint;
          commit_tx = dummy_tx; commit_ring = [||]; presig = dummy_presig;
          my_out_kp = dummy_kp; out_keys = []; kes_commit = dummy_commit;
          presig_history = []; lock = None; closed = false; phase = Idle;
          extracted = None; journal = None;
        }
    end
