(** Two-party linkable ring (adaptor) signing — the interactive core of
    2P-CLRAS (paper Algorithm 2).

    Two signers hold additive shares sk_A, sk_B of the key behind one
    ring slot vk = vk_A ⊕ vk_B, and jointly produce LSAG
    (pre-)signatures in which the ring, the key image and the final
    signature are indistinguishable from a single signer's. The
    protocol is expressed as explicit messages so the channel layer can
    count and serialize real protocol traffic:

      JGen:  2 messages (key shares with proofs-of-possession)
           + 2 messages (key-image shares with DLEQ proofs)
      PSign: 4 messages (nonce shares, then response shares) —
             two interactions, as in the paper's §VI accounting.

    Nonce shares are exchanged without a commitment round, mirroring
    the paper's message counts; a deployment hardened against
    concurrent-session (Drijvers-style) attacks would add one
    commit-reveal round. *)

open Monet_ec

type role = Alice | Bob

(* --- JGen: joint key generation --- *)

type key_msg = { km_vk : Point.t; km_pok : Monet_sigma.Schnorr.proof }

type ki_msg = { ki_share : Point.t; ki_proof : Monet_sigma.Dleq.proof }

type joint = {
  role : role;
  my_sk : Sc.t;
  my_vk : Point.t;
  their_vk : Point.t;
  vk : Point.t; (* aggregated verification key: the ring slot *)
  hp : Point.t; (* Hp(vk), base of the key-image leg *)
  my_ki : Point.t;
  their_ki : Point.t;
  key_image : Point.t;
}

let key_msg (g : Monet_hash.Drbg.t) : Sc.t * key_msg =
  let sk = Sc.random_nonzero g in
  let vk = Point.mul_base sk in
  let pok = Monet_sigma.Schnorr.prove ~context:"2p-jgen" g ~x:sk ~xg:vk in
  (sk, { km_vk = vk; km_pok = pok })

let hp_of_vk = Lsag.hp

(** After exchanging [key_msg]s, derive the joint key and produce the
    key-image share message. *)
let ki_msg (g : Monet_hash.Drbg.t) ~(sk : Sc.t) ~(my : key_msg) ~(theirs : key_msg) :
    (ki_msg, string) result =
  if not (Monet_sigma.Schnorr.verify ~context:"2p-jgen" ~xg:theirs.km_vk theirs.km_pok)
  then Error "counterparty key share: invalid proof of possession"
  else begin
    let vk = Point.add my.km_vk theirs.km_vk in
    let hp = hp_of_vk vk in
    let ki_share = Point.mul sk hp in
    let ki_proof = Monet_sigma.Dleq.prove ~context:"2p-ki" g ~x:sk ~g1:Point.base ~g2:hp in
    Ok { ki_share; ki_proof }
  end

let finish_jgen ~(role : role) ~(sk : Sc.t) ~(my : key_msg) ~(theirs : key_msg)
    ~(my_ki : ki_msg) ~(their_ki : ki_msg) : (joint, string) result =
  let vk = Point.add my.km_vk theirs.km_vk in
  let hp = hp_of_vk vk in
  if
    not
      (Monet_sigma.Dleq.verify ~context:"2p-ki" ~g1:Point.base ~h1:theirs.km_vk ~g2:hp
         ~h2:their_ki.ki_share their_ki.ki_proof)
  then Error "counterparty key-image share: invalid DLEQ proof"
  else
    Ok
      {
        role;
        my_sk = sk;
        my_vk = my.km_vk;
        their_vk = theirs.km_vk;
        vk;
        hp;
        my_ki = my_ki.ki_share;
        their_ki = their_ki.ki_share;
        key_image = Point.add my_ki.ki_share their_ki.ki_share;
      }

(* --- PSign: joint pre-signing --- *)

type nonce_msg = { nm_rg : Point.t; nm_ri : Point.t; nm_proof : Monet_sigma.Dleq.proof }

type nonce_secret = { ns_r : Sc.t; ns_msg : nonce_msg }

let nonce (g : Monet_hash.Drbg.t) (j : joint) : nonce_secret =
  let r = Sc.random_nonzero g in
  let nm_rg = Point.mul_base r in
  let nm_ri = Point.mul r j.hp in
  let nm_proof = Monet_sigma.Dleq.prove ~context:"2p-nonce" g ~x:r ~g1:Point.base ~g2:j.hp in
  { ns_r = r; ns_msg = { nm_rg; nm_ri; nm_proof } }

let check_nonce (j : joint) (nm : nonce_msg) : bool =
  Monet_sigma.Dleq.verify ~context:"2p-nonce" ~g1:Point.base ~h1:nm.nm_rg ~g2:j.hp
    ~h2:nm.nm_ri nm.nm_proof

type session = {
  se_pi : int;
  se_c0 : Sc.t;
  se_c_pi : Sc.t; (* challenge at the real index *)
  se_ss : Sc.t array array; (* responses by row; row 0's real one is filled at assembly *)
  se_key_image : Point.t;
}

(** Both parties derive the same session deterministically from the
    exchanged nonces, over the walk [w] of k rows. Row 0 is the joint
    key, answered by the response shares; rows 1..k−1 hold keys both
    parties know ([shared]), answered from a shared coin seeded by
    [coin] = (tag, part) over the message, the combined commitments
    and part. The coin draws the shared rows' nonces, then the decoy
    responses, so the walk agrees without extra messages. *)
let session_rows (j : joint) (w : Lsag.walk) ~coin:((coin_tag, coin_part) : string * string)
    ~(pi : int) ~(stmt : Stmt.t) ~(shared : Sc.t array) ~(mine : nonce_secret)
    ~(theirs : nonce_msg) : (session, string) result =
  let rows = w.Lsag.w_rows in
  let n = Array.length rows.(0) in
  let opens i x = Point.equal rows.(i + 1).(pi) (Point.mul_base x) in
  if n = 0 || pi < 0 || pi >= n then Error "bad ring"
  else if not (Point.equal rows.(0).(pi) j.vk) then Error "ring slot is not the joint key"
  else if not (Array.for_all Fun.id (Array.mapi opens shared)) then
    Error "z does not open the commitment slot"
  else if not (check_nonce j theirs) then Error "counterparty nonce: invalid DLEQ"
  else begin
    let l0 = Point.add (Point.add mine.ns_msg.nm_rg theirs.nm_rg) stmt.Stmt.yg in
    let r = Point.add (Point.add mine.ns_msg.nm_ri theirs.nm_ri) stmt.Stmt.yhp in
    let coin =
      Monet_hash.Drbg.create
        ~seed:
          (Monet_hash.Hash.tagged coin_tag
             [ w.w_msg; Point.encode l0; Point.encode r; coin_part ])
    in
    let nonces = Array.map (fun _ -> Sc.random_nonzero coin) shared in
    let se_c0, se_c_pi, se_ss =
      Lsag.open_walk w j.key_image ~pi coin ~l0 ~r ~nonces ~keys:shared
    in
    Ok { se_pi = pi; se_c0; se_c_pi; se_ss; se_key_image = j.key_image }
  end

(** The one-row (LSAG) session, its coin seeded over the key image. *)
let session (j : joint) ~(ring : Point.t array) ~(pi : int) ~(msg : string)
    ~(stmt : Stmt.t) ~(mine : nonce_secret) ~(theirs : nonce_msg) :
    (session, string) result =
  session_rows j (Lsag.ring_walk ~msg ring) ~coin:("2p-decoys", Point.encode j.key_image) ~pi
    ~stmt ~shared:[||] ~mine ~theirs

(** My response share ẑ_P = r_P - c_π·sk_P. *)
let z_share (j : joint) (se : session) (mine : nonce_secret) : Sc.t =
  Sc.sub mine.ns_r (Sc.mul se.se_c_pi j.my_sk)

(** Check the counterparty's response share against their published
    nonce and key shares (accountable abort). *)
let check_z_share (j : joint) (se : session) ~(their_nonce : nonce_msg) ~(z : Sc.t) :
    bool =
  (* z·G + c_π·vk = R and z·Hp + c_π·I = R_I, each one Straus pass. *)
  Point.equal (Point.double_mul se.se_c_pi j.their_vk z) their_nonce.nm_rg
  && Point.equal (Point.mul2 z j.hp se.se_c_pi j.their_ki) their_nonce.nm_ri

let assemble (se : session) ~(my_z : Sc.t) ~(their_z : Sc.t) : Lsag.pre_signature =
  let ss = Array.copy se.se_ss.(0) in
  ss.(se.se_pi) <- Sc.add my_z their_z;
  { Lsag.p_c0 = se.se_c0; p_ss = ss; p_key_image = se.se_key_image; p_pi = se.se_pi }

(* --- Local driver: runs both sides in-process (used by tests,
   benches and the simulator). --- *)

let run_jgen (ga : Monet_hash.Drbg.t) (gb : Monet_hash.Drbg.t) :
    (joint * joint, string) result =
  let sk_a, km_a = key_msg ga in
  let sk_b, km_b = key_msg gb in
  match (ki_msg ga ~sk:sk_a ~my:km_a ~theirs:km_b, ki_msg gb ~sk:sk_b ~my:km_b ~theirs:km_a) with
  | Ok ki_a, Ok ki_b -> (
      match
        ( finish_jgen ~role:Alice ~sk:sk_a ~my:km_a ~theirs:km_b ~my_ki:ki_a
            ~their_ki:ki_b,
          finish_jgen ~role:Bob ~sk:sk_b ~my:km_b ~theirs:km_a ~my_ki:ki_b
            ~their_ki:ki_a )
      with
      | Ok ja, Ok jb -> Ok (ja, jb)
      | Error e, _ | _, Error e -> Error e)
  | Error e, _ | _, Error e -> Error e

(** Both sides of one pre-signing in-process: the nonce exchange, each
    party's [session], then each party's check of the other's response
    share before [assemble]. *)
let run_sessions (ga : Monet_hash.Drbg.t) (gb : Monet_hash.Drbg.t) ~(alice : joint)
    ~(bob : joint) ~(session : joint -> nonce_secret -> nonce_msg -> (session, string) result)
    ~(assemble : session -> my_z:Sc.t -> their_z:Sc.t -> 'p) : ('p, string) result =
  let na = nonce ga alice and nb = nonce gb bob in
  match (session alice na nb.ns_msg, session bob nb na.ns_msg) with
  | Ok sa, Ok sb ->
      let za = z_share alice sa na and zb = z_share bob sb nb in
      if not (check_z_share alice sa ~their_nonce:nb.ns_msg ~z:zb) then
        Error "bob's response share failed verification"
      else if not (check_z_share bob sb ~their_nonce:na.ns_msg ~z:za) then
        Error "alice's response share failed verification"
      else Ok (assemble sa ~my_z:za ~their_z:zb)
  | Error e, _ | _, Error e -> Error e

let run_psign (ga : Monet_hash.Drbg.t) (gb : Monet_hash.Drbg.t) ~(alice : joint)
    ~(bob : joint) ~(ring : Point.t array) ~(pi : int) ~(msg : string)
    ~(stmt : Stmt.t) : (Lsag.pre_signature, string) result =
  run_sessions ga gb ~alice ~bob ~assemble ~session:(fun j mine theirs ->
      session j ~ring ~pi ~msg ~stmt ~mine ~theirs)

(* Wire encodings for the protocol messages (used to measure
   communication overhead, experiment E3). *)

let encode_key_msg w (m : key_msg) =
  Monet_util.Wire.write_fixed w (Point.encode m.km_vk);
  Monet_sigma.Schnorr.encode_proof w m.km_pok

let encode_ki_msg w (m : ki_msg) =
  Monet_util.Wire.write_fixed w (Point.encode m.ki_share);
  Monet_sigma.Dleq.encode_proof w m.ki_proof

let encode_nonce_msg w (m : nonce_msg) =
  Monet_util.Wire.write_fixed w (Point.encode m.nm_rg);
  Monet_util.Wire.write_fixed w (Point.encode m.nm_ri);
  Monet_sigma.Dleq.encode_proof w m.nm_proof
