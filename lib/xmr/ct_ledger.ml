(** A RingCT ledger: confidential-amount transactions over MLSAG
    rings. Separate from {!Ledger} (the paper's plain-amount model 𝓕_M)
    so both chain flavours coexist; MoNet's channel construction is
    oblivious to which one carries it.

    Structural differences from the plain ledger, all inherited from
    real RingCT: amounts are Pedersen commitments with range proofs,
    decoys are *any* outputs (no denomination matching — the decoy
    pool is the whole chain), and each input carries a pseudo-output
    commitment bridging the ring to the balance equation. *)

open Monet_ec

type ct_output = {
  cto_otk : Point.t;
  cto_commitment : Ct.commitment;
  cto_range : Range_proof.t;
}

type ct_input = {
  cti_ring_refs : int array;
  cti_pseudo : Ct.commitment;
  cti_key_image : Point.t;
  cti_sig : Monet_sig.Mlsag.signature;
}

type ct_tx = { ct_inputs : ct_input list; ct_outputs : ct_output list; ct_fee : int }

(* The MLSAG message: everything but the ring signatures. *)
let prefix (tx : ct_tx) : string =
  let w = Monet_util.Wire.create_writer () in
  List.iter
    (fun (i : ct_input) ->
      Monet_util.Wire.write_list w Monet_util.Wire.write_u32 (Array.to_list i.cti_ring_refs);
      Monet_util.Wire.write_fixed w (Point.encode i.cti_pseudo);
      Monet_util.Wire.write_fixed w (Point.encode i.cti_key_image))
    tx.ct_inputs;
  List.iter
    (fun (o : ct_output) ->
      Monet_util.Wire.write_fixed w (Point.encode o.cto_otk);
      Monet_util.Wire.write_fixed w (Point.encode o.cto_commitment))
    tx.ct_outputs;
  Monet_util.Wire.write_u64 w tx.ct_fee;
  Monet_util.Wire.contents w

type entry = { e_otk : Point.t; e_commitment : Ct.commitment }

type t = {
  mutable outputs : entry array;
  mutable n : int;
  key_images : (string, unit) Hashtbl.t;
  mutable txs_confirmed : int;
}

let create () : t =
  { outputs = Array.make 256 { e_otk = Point.identity; e_commitment = Point.identity };
    n = 0; key_images = Hashtbl.create 64; txs_confirmed = 0 }

let add_entry (c : t) (e : entry) : int =
  if c.n = Array.length c.outputs then begin
    let bigger = Array.make (2 * c.n) c.outputs.(0) in
    Array.blit c.outputs 0 bigger 0 c.n;
    c.outputs <- bigger
  end;
  c.outputs.(c.n) <- e;
  c.n <- c.n + 1;
  c.n - 1

(** Mint an output with a known opening (genesis / tests). *)
let genesis (c : t) ~(otk : Point.t) ~(amount : int) ~(blind : Sc.t) : int =
  add_entry c { e_otk = otk; e_commitment = Ct.commit ~amount ~blind }

let validate (c : t) (tx : ct_tx) : (unit, string) result =
  let msg = prefix tx in
  let rec check_inputs seen_kis = function
    | [] -> Ok ()
    | (i : ct_input) :: rest ->
        let ki = Point.encode i.cti_key_image in
        if Hashtbl.mem c.key_images ki then Error "key image spent"
        else if List.mem ki seen_kis then Error "duplicate key image within tx"
        else if Array.exists (fun r -> r < 0 || r >= c.n) i.cti_ring_refs then
          Error "missing ring member"
        else begin
          let ring =
            Array.map
              (fun r ->
                { Monet_sig.Mlsag.p = c.outputs.(r).e_otk;
                  d = Ct.diff c.outputs.(r).e_commitment i.cti_pseudo })
              i.cti_ring_refs
          in
          if not (Monet_sig.Mlsag.verify ~ring ~msg i.cti_sig) then
            Error "mlsag invalid"
          else if not (Point.equal i.cti_key_image i.cti_sig.Monet_sig.Mlsag.key_image)
          then Error "key image mismatch"
          else check_inputs (ki :: seen_kis) rest
        end
  in
  if tx.ct_inputs = [] then Error "no inputs"
  else
    match check_inputs [] tx.ct_inputs with
    | Error e -> Error e
    | Ok () ->
        if
          not
            (Ct.balances
               ~pseudo_ins:(List.map (fun i -> i.cti_pseudo) tx.ct_inputs)
               ~outs:(List.map (fun o -> o.cto_commitment) tx.ct_outputs)
               ~fee:tx.ct_fee)
        then Error "commitments do not balance"
        else if
          not
            (Range_proof.verify_batch
               (Array.of_list
                  (List.map (fun o -> (o.cto_commitment, o.cto_range)) tx.ct_outputs)))
        then Error "range proof invalid"
        else Ok ()

let apply (c : t) (tx : ct_tx) : (unit, string) result =
  match validate c tx with
  | Error e -> Error e
  | Ok () ->
      List.iter
        (fun (i : ct_input) -> Hashtbl.replace c.key_images (Point.encode i.cti_key_image) ())
        tx.ct_inputs;
      List.iter
        (fun (o : ct_output) ->
          ignore (add_entry c { e_otk = o.cto_otk; e_commitment = o.cto_commitment }))
        tx.ct_outputs;
      c.txs_confirmed <- c.txs_confirmed + 1;
      Ok ()

(** An owned CT coin: its position, keys and opening. *)
type coin = { global_index : int; kp : Monet_sig.Sig_core.keypair; amount : int; blind : Sc.t }

(** Build a full CT transaction spending [coins] to one recipient
    (plus change to a fresh key): decoys are arbitrary outputs, as on
    the real RingCT chain. Returns (tx, change coin when any). *)
let spend (g : Monet_hash.Drbg.t) (c : t) ~(coins : coin list) ~(dest : Point.t)
    ~(amount : int) ~(fee : int) ~(ring_size : int) :
    (ct_tx * coin option, string) result =
  let total = List.fold_left (fun a k -> a + k.amount) 0 coins in
  if total < amount + fee then Error "insufficient amount"
  else begin
    let change = total - amount - fee in
    let out_blind_main = Sc.random_nonzero g in
    let change_kp = Monet_sig.Sig_core.gen g in
    let out_blind_change = Sc.random_nonzero g in
    let outputs_spec =
      (dest, amount, out_blind_main)
      :: (if change > 0 then [ (change_kp.Monet_sig.Sig_core.vk, change, out_blind_change) ] else [])
    in
    let out_blinds = List.map (fun (_, _, b) -> b) outputs_spec in
    let pseudo_blinds = Ct.pseudo_blinds g ~n_inputs:(List.length coins) ~out_blinds in
    let outputs =
      List.map
        (fun (otk, a, b) ->
          { cto_otk = otk; cto_commitment = Ct.commit ~amount:a ~blind:b;
            cto_range = Range_proof.prove g ~amount:a ~blind:b })
        outputs_spec
    in
    (* Ring sampling: arbitrary decoys. *)
    let plan =
      List.map2
        (fun (coin : coin) pseudo_blind ->
          let pool = Array.init c.n (fun i -> i) in
          let n_decoys = min (ring_size - 1) (max 0 (c.n - 1)) in
          let decoys = ref [] in
          while List.length !decoys < n_decoys do
            let cand = pool.(Monet_hash.Drbg.int g c.n) in
            if cand <> coin.global_index && not (List.mem cand !decoys) then
              decoys := cand :: !decoys
          done;
          let refs = Array.of_list (List.sort compare (coin.global_index :: !decoys)) in
          let pi = ref 0 in
          Array.iteri (fun i r -> if r = coin.global_index then pi := i) refs;
          (coin, pseudo_blind, refs, !pi))
        coins pseudo_blinds
    in
    let skeleton_inputs =
      List.map
        (fun ((coin : coin), pseudo_blind, refs, _) ->
          let pseudo = Ct.commit ~amount:coin.amount ~blind:pseudo_blind in
          let ki = Monet_sig.Lsag.key_image ~sk:coin.kp.Monet_sig.Sig_core.sk ~vk:coin.kp.vk in
          { cti_ring_refs = refs; cti_pseudo = pseudo; cti_key_image = ki;
            cti_sig = { Monet_sig.Mlsag.c0 = Sc.zero; s1 = [||]; s2 = [||]; key_image = ki } })
        plan
    in
    let tx0 = { ct_inputs = skeleton_inputs; ct_outputs = outputs; ct_fee = fee } in
    let msg = prefix tx0 in
    let inputs =
      List.map2
        (fun ((coin : coin), pseudo_blind, refs, pi) (skel : ct_input) ->
          let ring =
            Array.map
              (fun r ->
                { Monet_sig.Mlsag.p = c.outputs.(r).e_otk;
                  d = Ct.diff c.outputs.(r).e_commitment skel.cti_pseudo })
              refs
          in
          (* z = blind_real - pseudo_blind opens C_real - pseudo as a
             commitment to zero. *)
          let z = Sc.sub coin.blind pseudo_blind in
          let sg =
            Monet_sig.Mlsag.sign g ~ring ~pi ~sk:coin.kp.Monet_sig.Sig_core.sk ~z ~msg
          in
          { skel with cti_sig = sg })
        plan skeleton_inputs
    in
    let tx = { tx0 with ct_inputs = inputs } in
    let change_coin =
      if change > 0 then
        Some { global_index = -1 (* set after apply *); kp = change_kp; amount = change;
               blind = out_blind_change }
      else None
    in
    Ok (tx, change_coin)
  end
