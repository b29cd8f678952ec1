(** The multiplicative group Z_ℓ* and its exponent ring Z_{ℓ-1}.

    This is the algebraic home of the VCOF consecutive function
    (DESIGN.md §3.2): witnesses are chained by y ↦ h^y mod ℓ, which is
    one-way under the discrete logarithm assumption in Z_ℓ*, while
    remaining a scalar usable on the ed25519 curve. Stadler-style
    double-discrete-log proofs need arithmetic on exponents, which
    lives modulo the group order ℓ-1. *)

(** Exponent ring Z_{ℓ-1}. ℓ-1 is not prime; we only use its additive
    structure (inverse-free), so [Fp.Make]'s add/sub/mul are sound and
    [inv] must not be used. *)
module Exp = Fp.Make (struct
  let modulus_hex = "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec"
  let name = "zl-exponent"
end)

(** The public chain base h (the VCOF public parameter pp). Any element
    of large multiplicative order works; we fix a small generator
    candidate and expose it as the default. *)
let default_base : Sc.t = Bn.of_int 7

(* --- Montgomery arithmetic mod ℓ ---------------------------------------

   Residues are ten 26-bit limbs (Bn's radix) in Montgomery form
   ã = a·R mod ℓ with R = 2^260, stored at an offset of a flat int
   array. R > 4ℓ, so the product of two values below 2ℓ reduces to a
   value below 2ℓ again, and nothing is canonicalized until the result
   leaves Montgomery form. *)

let limbs = 10

let limbs_of (x : Bn.t) : int array =
  Array.init limbs (fun i -> if i < Array.length x then x.(i) else 0)

(* ℓ = 2^252 + c with c < 2^125: its limbs 5..8 are zero, so a
   reduction row adds m·ℓ with six products. *)
let l0, l1, l2, l3, l4, l9 =
  let l = limbs_of Sc.l in
  (l.(0), l.(1), l.(2), l.(3), l.(4), l.(9))

(* -ℓ⁻¹ mod 2^26 by Newton iteration: each step doubles the correct
   low bits of the inverse of the odd limb l0. *)
let l_neg_inv =
  let rec go x k = if k = 0 then x else go (x * (2 - (l0 * x)) land Bn.limb_mask) (k - 1) in
  (- go 1 5) land Bn.limb_mask

(* d.(doff ..) <- a·b·R⁻¹ mod ℓ for the residues at a.(aoff ..) and
   b.(boff ..), both below 2ℓ; [d] may alias either operand. Straight
   line, as {!Fe.mul_into}: the 19 column sums of a·b (each below
   10·2^52), then ten REDC rows, row i adding m·ℓ·2^(26i) with m chosen
   to clear column i and carrying it into column i + 1. Columns stay
   below 2^58. *)
let mont_mul_into (d : int array) (doff : int) (a : int array) (aoff : int) (b : int array)
    (boff : int) : unit =
  let a0 = a.(aoff) and a1 = a.(aoff + 1) and a2 = a.(aoff + 2) and a3 = a.(aoff + 3)
  and a4 = a.(aoff + 4) and a5 = a.(aoff + 5) and a6 = a.(aoff + 6) and a7 = a.(aoff + 7)
  and a8 = a.(aoff + 8) and a9 = a.(aoff + 9) in
  let b0 = b.(boff) and b1 = b.(boff + 1) and b2 = b.(boff + 2) and b3 = b.(boff + 3)
  and b4 = b.(boff + 4) and b5 = b.(boff + 5) and b6 = b.(boff + 6) and b7 = b.(boff + 7)
  and b8 = b.(boff + 8) and b9 = b.(boff + 9) in
  let c0 = (a0 * b0)
  and c1 = (a0 * b1) + (a1 * b0)
  and c2 = (a0 * b2) + (a1 * b1) + (a2 * b0)
  and c3 = (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0)
  and c4 = (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0)
  and c5 = (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0)
  and c6 = (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0)
  and c7 = (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0)
  and c8 = (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0)
  and c9 = (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0)
  and c10 = (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1)
  and c11 = (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) + (a8 * b3) + (a9 * b2)
  and c12 = (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) + (a9 * b3)
  and c13 = (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4)
  and c14 = (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5)
  and c15 = (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6)
  and c16 = (a7 * b9) + (a8 * b8) + (a9 * b7)
  and c17 = (a8 * b9) + (a9 * b8)
  and c18 = (a9 * b9) in
  let m = c0 * l_neg_inv land Bn.limb_mask in
  let c1 = c1 + ((c0 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c2 = c2 + (m * l2)
  and c3 = c3 + (m * l3)
  and c4 = c4 + (m * l4)
  and c9 = c9 + (m * l9) in
  let m = c1 * l_neg_inv land Bn.limb_mask in
  let c2 = c2 + ((c1 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c3 = c3 + (m * l2)
  and c4 = c4 + (m * l3)
  and c5 = c5 + (m * l4)
  and c10 = c10 + (m * l9) in
  let m = c2 * l_neg_inv land Bn.limb_mask in
  let c3 = c3 + ((c2 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c4 = c4 + (m * l2)
  and c5 = c5 + (m * l3)
  and c6 = c6 + (m * l4)
  and c11 = c11 + (m * l9) in
  let m = c3 * l_neg_inv land Bn.limb_mask in
  let c4 = c4 + ((c3 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c5 = c5 + (m * l2)
  and c6 = c6 + (m * l3)
  and c7 = c7 + (m * l4)
  and c12 = c12 + (m * l9) in
  let m = c4 * l_neg_inv land Bn.limb_mask in
  let c5 = c5 + ((c4 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c6 = c6 + (m * l2)
  and c7 = c7 + (m * l3)
  and c8 = c8 + (m * l4)
  and c13 = c13 + (m * l9) in
  let m = c5 * l_neg_inv land Bn.limb_mask in
  let c6 = c6 + ((c5 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c7 = c7 + (m * l2)
  and c8 = c8 + (m * l3)
  and c9 = c9 + (m * l4)
  and c14 = c14 + (m * l9) in
  let m = c6 * l_neg_inv land Bn.limb_mask in
  let c7 = c7 + ((c6 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c8 = c8 + (m * l2)
  and c9 = c9 + (m * l3)
  and c10 = c10 + (m * l4)
  and c15 = c15 + (m * l9) in
  let m = c7 * l_neg_inv land Bn.limb_mask in
  let c8 = c8 + ((c7 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c9 = c9 + (m * l2)
  and c10 = c10 + (m * l3)
  and c11 = c11 + (m * l4)
  and c16 = c16 + (m * l9) in
  let m = c8 * l_neg_inv land Bn.limb_mask in
  let c9 = c9 + ((c8 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c10 = c10 + (m * l2)
  and c11 = c11 + (m * l3)
  and c12 = c12 + (m * l4)
  and c17 = c17 + (m * l9) in
  let m = c9 * l_neg_inv land Bn.limb_mask in
  let c10 = c10 + ((c9 + (m * l0)) asr Bn.limb_bits) + (m * l1)
  and c11 = c11 + (m * l2)
  and c12 = c12 + (m * l3)
  and c13 = c13 + (m * l4)
  and c18 = c18 + (m * l9) in
  (* Columns 10..18 hold the result; sweep their carries. *)
  let mask = Bn.limb_mask and w = Bn.limb_bits in
  let c11 = c11 + (c10 asr w) in
  let c12 = c12 + (c11 asr w) in
  let c13 = c13 + (c12 asr w) in
  let c14 = c14 + (c13 asr w) in
  let c15 = c15 + (c14 asr w) in
  let c16 = c16 + (c15 asr w) in
  let c17 = c17 + (c16 asr w) in
  let c18 = c18 + (c17 asr w) in
  d.(doff) <- c10 land mask;
  d.(doff + 1) <- c11 land mask;
  d.(doff + 2) <- c12 land mask;
  d.(doff + 3) <- c13 land mask;
  d.(doff + 4) <- c14 land mask;
  d.(doff + 5) <- c15 land mask;
  d.(doff + 6) <- c16 land mask;
  d.(doff + 7) <- c17 land mask;
  d.(doff + 8) <- c18 land mask;
  d.(doff + 9) <- c18 asr w

(* Fixed-base comb tables for [pow]. Stadler proofs exponentiate the
   same public base h for every one of their 80 repetitions, so the
   squaring schedule of a generic square-and-multiply is pure waste:
   precompute h^(d·2^(4i)) for each 4-bit window i and digit d once,
   and a 384-bit exponentiation becomes ~96 Montgomery multiplications
   with no squarings at all. Tables are cached per base for the whole
   process (paid once, shared by prover, verifier and batch verifier);
   a mutex makes the cache safe to consult from worker domains. *)
let comb_window = 4
let comb_windows = ((8 * 48) + comb_window - 1) / comb_window (* 384-bit exps *)
let comb_bits = comb_windows * comb_window

(* One flat array: entry (i, d) = h^(d·2^(4i))·R mod ℓ at [entry i d]. *)
type comb = int array

let entry i d = ((16 * i) + d) * limbs
let combs : (string, comb) Hashtbl.t = Hashtbl.create 4
let combs_mu = Mutex.create ()

let build_comb (h : Sc.t) : comb =
  let t = Array.make (comb_windows * 16 * limbs) 0 in
  let to_mont x = limbs_of (Bn.rem (Bn.shift_left_bits x (limbs * Bn.limb_bits)) Sc.l) in
  let one = to_mont Bn.one and base = to_mont h in
  for i = 0 to comb_windows - 1 do
    Array.blit one 0 t (entry i 0) limbs;
    for d = 1 to 15 do
      mont_mul_into t (entry i d) t (entry i (d - 1)) base 0
    done;
    for _ = 1 to comb_window do
      mont_mul_into base 0 base 0 base 0
    done
  done;
  t

let comb_of (h : Sc.t) : comb =
  let key = Bn.to_bytes_le h ~len:32 in
  Mutex.protect combs_mu (fun () ->
      match Hashtbl.find_opt combs key with
      | Some t -> t
      | None ->
          let t = build_comb h in
          Hashtbl.add combs key t;
          t)

(* Bits [4i, 4i + 4) of x, for 4i < num_bits x; a window may straddle
   two limbs. *)
let digit (x : Bn.t) (i : int) : int =
  let bit = i * comb_window in
  let k = bit / Bn.limb_bits and off = bit mod Bn.limb_bits in
  let lo = x.(k) lsr off in
  if off + comb_window <= Bn.limb_bits || k + 1 >= Array.length x then lo land 15
  else (lo lor (x.(k + 1) lsl (Bn.limb_bits - off))) land 15

(** [pow h x] = h^x mod ℓ — the VCOF consecutive one-way step, by the
    fixed-base comb in Montgomery form. An exponent wider than the comb
    first folds to ((x - 1) mod (ℓ - 1)) + 1: the same power by Fermat's
    little theorem, and still ≥ 1, so 0^x = 0 survives. *)
let pow (h : Sc.t) (x : Bn.t) : Sc.t =
  let x =
    if Bn.num_bits x <= comb_bits then x
    else Bn.add (Bn.rem (Bn.sub x Bn.one) Exp.modulus) Bn.one
  in
  let t = comb_of h in
  let acc = Array.sub t (entry 0 0) limbs in
  (* A zero digit multiplies by entry (i, 0) = R mod ℓ, the Montgomery
     one: the loop never branches on the exponent's digits. *)
  for i = 0 to ((Bn.num_bits x + comb_window - 1) / comb_window) - 1 do
    mont_mul_into acc 0 acc 0 t (entry i (digit x i))
  done;
  (* Leave Montgomery form: acc·1·R⁻¹ ≤ ℓ, where ℓ itself stands for 0. *)
  mont_mul_into acc 0 acc 0 (limbs_of Bn.one) 0;
  let r = Bn.normalize acc in
  if Bn.compare r Sc.l >= 0 then Bn.sub r Sc.l else r

(** Fold a scalar (mod ℓ) into the exponent ring (mod ℓ-1). *)
let exp_of_scalar (x : Sc.t) : Exp.t = Exp.of_bn x
