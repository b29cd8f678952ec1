(** MLSAG: multilayer linkable spontaneous anonymous group signatures
    (Noether, "Ring Confidential Transactions"), restricted to the
    two-row shape Monero's RingCT inputs use.

    Ring member i is a column (P_i, D_i) of two public keys; the signer
    knows both discrete logs at its index π: sk (the one-time output
    key, which gets a key image) and z (the commitment-difference key
    C_π − pseudo-out, which does not). The walk is LSAG's with two
    L-legs and one R-leg — {!Lsag}'s ring walk with k = 2:

      L1_i = s1_i·G + c_i·P_i     R_i = s1_i·Hp(P_i) + c_i·I
      L2_i = s2_i·G + c_i·D_i
      c_{i+1} = H(m, L1_i, R_i, L2_i)

    This is what lets a confidential transaction prove "one of these
    outputs is mine AND its commitment equals my pseudo-output's"
    without revealing which — the piece plain LSAG cannot express. *)

open Monet_ec

type column = { p : Point.t; d : Point.t }

type signature = {
  c0 : Sc.t;
  s1 : Sc.t array;
  s2 : Sc.t array;
  key_image : Point.t;
}

(** The ring as the walk's two rows: one-time keys, then commitment
    differences. *)
let rows (ring : column array) : Point.t array array =
  [| Array.map (fun col -> col.p) ring; Array.map (fun col -> col.d) ring |]

let walk ~(msg : string) (ring : column array) : Lsag.walk =
  Lsag.walk ~tag:"mlsag" ~msg (rows ring)

(* lint: public: ring msg *)
(* The ring is the published anonymity set and msg the signed
   transaction prefix; both arrive through call chains that touch
   secret material (the spender's one-time keys), which taints them
   interprocedurally without the declaration above. *)
let sign (g : Monet_hash.Drbg.t) ~(ring : column array) ~(pi : int) ~(sk : Sc.t)
    ~(z : Sc.t) ~(msg : string) : signature =
  let n = Array.length ring in
  if n = 0 || pi < 0 || pi >= n then invalid_arg "Mlsag.sign: bad ring";
  if not (Point.equal ring.(pi).p (Point.mul_base sk)) then
    invalid_arg "Mlsag.sign: sk does not match ring slot";
  if not (Point.equal ring.(pi).d (Point.mul_base z)) then
    invalid_arg "Mlsag.sign: z does not match commitment slot";
  let c0, ss, key_image =
    Lsag.sign_rows g (walk ~msg ring) ~pi ~sks:[| sk; z |] ~stmt:Stmt.zero
  in
  { c0; s1 = ss.(0); s2 = ss.(1); key_image }

let verify ~(ring : column array) ~(msg : string) (sg : signature) : bool =
  Lsag.closes (walk ~msg ring) sg.key_image sg.c0 [| sg.s1; sg.s2 |]

let linked (a : signature) (b : signature) : bool =
  Point.equal a.key_image b.key_image

let encode (w : Monet_util.Wire.writer) (sg : signature) =
  Lsag.encode_walk w sg.c0 [| sg.s1; sg.s2 |] sg.key_image

let decode (r : Monet_util.Wire.reader) : signature =
  let c0, rows, key_image = Lsag.decode_walk ~name:"Mlsag.decode" ~k:2 r in
  { c0; s1 = rows.(0); s2 = rows.(1); key_image }
