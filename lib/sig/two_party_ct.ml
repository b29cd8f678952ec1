(** Two-party MLSAG (pre-)signing — MoChannel over RingCT.

    When the channel's funding output lives on the confidential-amount
    ledger, the commitment transaction spends it with a two-row MLSAG
    (see {!Mlsag}): row 1 is the 2-of-2 one-time key sk_A + sk_B, row 2
    is the commitment-difference key z = blind − pseudo_blind.

    Between channel partners z is not a secret: both co-created the
    funding output and the pseudo-output, so both know z. Row 2 is
    therefore a shared row of {!Two_party}'s session, answered from the
    shared coin, and only row 1 needs the interactive nonce/response
    shares — the protocol keeps the 4-message shape of {!Two_party},
    whose [z_share] and [check_z_share] apply unchanged. Adaptor
    statements shift row 1 exactly as in the plain LSAG case. *)

open Monet_ec

(** {!Two_party}'s pre-signature over row 1, plus the shared row. *)
type pre_signature = { pc_pre : Lsag.pre_signature; pc_s2 : Sc.t array }

(** Both parties derive the same session from the exchanged nonces
    plus the shared row-2 key [z]. *)
let session (j : Two_party.joint) ~(ring : Mlsag.column array) ~(pi : int)
    ~(msg : string) ~(stmt : Stmt.t) ~(z : Sc.t) ~(mine : Two_party.nonce_secret)
    ~(theirs : Two_party.nonce_msg) : (Two_party.session, string) result =
  Two_party.session_rows j (Mlsag.walk ~msg ring) ~coin:("2p-ct-coin", Sc.to_bytes_le z) ~pi
    ~stmt ~shared:[| z |] ~mine ~theirs

(** Pre-verification: the MLSAG walk closes with row 1 offset by the
    statement at the real index. *)
let pre_verify ~(ring : Mlsag.column array) ~(msg : string) ~(stmt : Stmt.t)
    (p : pre_signature) : bool =
  let q = p.pc_pre in
  Lsag.closes (Mlsag.walk ~msg ring) q.p_key_image ~at:(q.p_pi, stmt) q.p_c0
    [| q.p_ss; p.pc_s2 |]

let adapt (p : pre_signature) ~(y : Sc.t) : Mlsag.signature =
  let q = Lsag.partial_adapt p.pc_pre ~y in
  { Mlsag.c0 = q.p_c0; s1 = q.p_ss; s2 = p.pc_s2; key_image = q.p_key_image }

let ext (sg : Mlsag.signature) (p : pre_signature) : Sc.t =
  Sc.sub sg.Mlsag.s1.(p.pc_pre.p_pi) p.pc_pre.p_ss.(p.pc_pre.p_pi)

(** Local driver (both sides in-process), as {!Two_party.run_psign}. *)
let run_psign (ga : Monet_hash.Drbg.t) (gb : Monet_hash.Drbg.t)
    ~(alice : Two_party.joint) ~(bob : Two_party.joint) ~(ring : Mlsag.column array)
    ~(pi : int) ~(msg : string) ~(stmt : Stmt.t) ~(z : Sc.t) :
    (pre_signature, string) result =
  Two_party.run_sessions ga gb ~alice ~bob
    ~session:(fun j mine theirs -> session j ~ring ~pi ~msg ~stmt ~z ~mine ~theirs)
    ~assemble:(fun se ~my_z ~their_z ->
      { pc_pre = Two_party.assemble se ~my_z ~their_z; pc_s2 = se.Two_party.se_ss.(1) })
