(** Random-linear-combination batch verification (DESIGN.md §3.10).

    Every Schnorr-shaped check in the stack is a group identity
    Σ aᵢ·Pᵢ = O once the commitment point travels with the signature
    ({!Sig_core}, {!Adaptor}). To verify a batch, sample independent
    128-bit coefficients z₀…z_{n−1} by hashing the batch itself
    (derandomized batching: the prover is committed to the batch
    before the zᵢ exist) and check the single combined identity

      Σᵢ zᵢ·(sᵢ·G − hᵢ·pkᵢ − Rᵢ) = O

    with one {!Point.msm}. If any single equation fails, the combined
    sum is non-zero except with probability 2⁻¹²⁸ per batch; if all
    hold, the sum is exactly O — so batch accept ⇔ every individual
    verify accepts, up to that soundness slack (tested adversarially
    in test/test_sig.ml).

    The G legs fold into one scalar, paid as a single fixed-base comb
    multiplication over the process-wide precomputed table of B
    ({!Point.mul_base}) — fixed-base work is per process, not per
    signature.

    LSAG ring signatures are the exception: the ring walk
    c_{i+1} = H(m, Lᵢ, Rᵢ) feeds each slot's group elements into the
    next challenge hash, so the Lᵢ/Rᵢ must actually be computed — a
    hash chain admits no random-linear-combination shortcut. {!lsag}
    therefore verifies each walk but shares the per-ring Hp
    derivations across the batch, and callers that hold many
    signatures fan the batch out across domains instead (lib/net
    sharding, DESIGN.md §3.10). *)

open Monet_ec

(* 128-bit coefficients derived from the batch content.  zᵢ = 0 is
   replaced by 1 (probability 2⁻¹²⁸; a zero coefficient would drop
   equation i from the combination entirely). *)
let randomizers ~(tag : string) (parts : string list) (n : int) : Sc.t array =
  let seed = Monet_hash.Hash.tagged ("batch/" ^ tag) parts in
  let g = Monet_hash.Drbg.create ~seed in
  (* One DRBG draw for the whole batch: 16n bytes in ⌈n/4⌉ blocks
     instead of one block per coefficient. *)
  let raw = Monet_hash.Drbg.bytes g (16 * n) in
  let pad = String.make 16 '\x00' in
  Array.init n (fun i ->
      let z = Sc.of_bytes_le (String.sub raw (16 * i) 16 ^ pad) in
      if Sc.is_zero z then Sc.one else z)

(** One verification batch entry: public key, message, signature. *)
type sig_item = { vk : Point.t; msg : string; sg : Sig_core.signature }

let m_batch = Monet_obs.Metrics.counter "sig.batch_verify"
let m_batch_items = Monet_obs.Metrics.counter "sig.batch_verify_items"

(** Batch-verify {!Sig_core} signatures: accepts iff every individual
    {!Sig_core.verify} accepts (soundness slack 2⁻¹²⁸ per batch). Cost
    is one {!Point.msm} over 2n points plus one fixed-base
    multiplication, against n full Straus passes for the loop of
    individual verifies. *)
let verify_sigs (items : sig_item array) : bool =
  let n = Array.length items in
  if n = 0 then true
  else begin
    Monet_obs.Metrics.bump m_batch;
    Monet_obs.Metrics.add m_batch_items n;
    (* Every point is encoded exactly once (one shared inversion) and
       the bytes feed both the randomizer transcript and the challenge
       recomputations. *)
    let encs =
      Point.encode_batch
        (Array.init (2 * n) (fun i ->
             if i land 1 = 0 then items.(i / 2).vk
             else items.(i / 2).sg.Sig_core.rp))
    in
    let parts =
      List.concat
        (List.init n (fun i ->
             [ encs.(2 * i); items.(i).msg; encs.((2 * i) + 1);
               Sc.to_bytes_le items.(i).sg.Sig_core.s ]))
    in
    let zs = randomizers ~tag:"sig-core" parts n in
    let s_fold = ref Sc.zero in
    let terms = Array.make (2 * n) (Sc.zero, Point.identity) in
    Array.iteri
      (fun i { vk; msg; sg } ->
        let h = Sig_core.challenge_enc encs.((2 * i) + 1) encs.(2 * i) msg in
        s_fold := Sc.add !s_fold (Sc.mul zs.(i) sg.Sig_core.s);
        terms.(2 * i) <- (Sc.neg (Sc.mul zs.(i) h), vk);
        (* Negate the point, not the 128-bit coefficient: Sc.neg would
           widen zᵢ back to 253 bits and double its Pippenger cost. *)
        terms.((2 * i) + 1) <- (zs.(i), Point.neg sg.Sig_core.rp))
      items;
    Point.is_identity (Point.add (Point.mul_base !s_fold) (Point.msm terms))
  end

(** One adaptor batch entry: key, message, statement, pre-signature. *)
type pre_item = {
  p_vk : Point.t;
  p_msg : string;
  p_stmt : Point.t;
  p_pre : Adaptor.pre_signature;
}

(** Batch-verify adaptor pre-signatures (e.g. a channel-open burst):
    each equation ŝᵢ·G − hᵢ·pkᵢ − R̂ᵢ + Yᵢ = O contributes four legs
    to the combined {!Point.msm}. Accept ⇔ every individual
    {!Adaptor.pre_verify} accepts, up to 2⁻¹²⁸ per batch. *)
let verify_pres (items : pre_item array) : bool =
  let n = Array.length items in
  if n = 0 then true
  else begin
    Monet_obs.Metrics.bump m_batch;
    Monet_obs.Metrics.add m_batch_items n;
    let encs =
      Point.encode_batch
        (Array.init (3 * n) (fun i ->
             let it = items.(i / 3) in
             match i mod 3 with
             | 0 -> it.p_vk
             | 1 -> it.p_stmt
             | _ -> it.p_pre.Adaptor.rp_sign))
    in
    let parts =
      List.concat
        (List.init n (fun i ->
             [ encs.(3 * i); items.(i).p_msg; encs.((3 * i) + 1);
               encs.((3 * i) + 2);
               Sc.to_bytes_le items.(i).p_pre.Adaptor.s_pre ]))
    in
    let zs = randomizers ~tag:"adaptor-pre" parts n in
    let s_fold = ref Sc.zero in
    let terms = Array.make (3 * n) (Sc.zero, Point.identity) in
    Array.iteri
      (fun i { p_vk; p_msg; p_stmt; p_pre } ->
        let h = Sig_core.challenge_enc encs.((3 * i) + 2) encs.(3 * i) p_msg in
        s_fold := Sc.add !s_fold (Sc.mul zs.(i) p_pre.Adaptor.s_pre);
        terms.(3 * i) <- (Sc.neg (Sc.mul zs.(i) h), p_vk);
        terms.((3 * i) + 1) <- (zs.(i), Point.neg p_pre.Adaptor.rp_sign);
        terms.((3 * i) + 2) <- (zs.(i), p_stmt))
      items;
    Point.is_identity (Point.add (Point.mul_base !s_fold) (Point.msm terms))
  end

(** One LSAG batch entry: ring, message, signature. *)
type lsag_item = { ring : Point.t array; l_msg : string; l_sg : Lsag.signature }

(** Verify a batch of LSAG signatures. The ring walk is a hash chain
    (see the module doc), so each signature's slots are still walked
    sequentially; what the batch shares is the ring preprocessing —
    the Hp(Pᵢ) derivations are computed once per distinct ring and
    reused across every signature over it. Accept ⇔ every individual
    {!Lsag.verify} accepts (no probabilistic slack here: each walk is
    checked exactly). *)
let lsag (items : lsag_item array) : bool =
  (* Group by physical ring first so hp_of_ring runs once per ring. *)
  let tbl : (Point.t array, Point.t array) Hashtbl.t = Hashtbl.create 8 in
  let hps_of ring =
    match Hashtbl.find_opt tbl ring with
    | Some hps -> hps
    | None ->
        let hps = Lsag.hp_of_ring ring in
        Hashtbl.add tbl ring hps;
        hps
  in
  Array.for_all
    (fun { ring; l_msg; l_sg } -> Lsag.verify ~hps:(hps_of ring) ~ring ~msg:l_msg l_sg)
    items
