(** Verifiable Consecutive One-way Function — paper Definition 1.

    A VCOF generates statement–witness pairs in a verifiable chain:
    anyone holding (Yⁱ, yⁱ) can derive (Yⁱ⁺¹, yⁱ⁺¹) and prove the step,
    but inverting a step is computationally hard. Instantiated as
    yⁱ⁺¹ = pp^{yⁱ} mod ℓ over ed25519 statements Yⁱ = yⁱ·G, with
    Stadler double-discrete-log step proofs (DESIGN.md §3.2). *)

open Monet_ec

type pair = { stmt : Point.t; wit : Sc.t }
(** A statement–witness pair (Y, y) with Y = y·G. *)

type proof = Monet_sigma.Stadler.proof
(** A consecutiveness proof P^{i+1} binding (Yⁱ, Yⁱ⁺¹). *)

val proof_size : proof -> int
(** Serialized size in bytes. *)

val default_pp : Sc.t
(** The default public parameter pp: a fixed public base of Z_ℓ*. *)

val sw_gen : Monet_hash.Drbg.t -> pair
(** [SWGen(λ)]: sample a fresh root pair. *)

val derive : pp:Sc.t -> Sc.t -> Sc.t
(** The consecutive one-way function f_c on witnesses: one forward
    step. Public — this is what lets a cheated-on channel party roll a
    revealed old witness forward. *)

val derive_n : pp:Sc.t -> Sc.t -> int -> Sc.t
(** [derive_n ~pp w n] applies {!derive} [n] times. *)

val new_sw :
  ?reps:int -> Monet_hash.Drbg.t -> pair -> pp:Sc.t -> pair * proof
(** [NewSW((Yⁱ, yⁱ), pp)]: the next pair plus its step proof. [reps]
    sets the proof's cut-and-choose repetitions (default 80,
    soundness 2⁻⁸⁰). *)

val c_vrfy : pp:Sc.t -> prev:Point.t -> next:Point.t -> proof -> bool
(** [CVrfy((Yⁱ, Yⁱ⁺¹), Pⁱ⁺¹)]: publicly verify one chain step. *)

val c_vrfy_batch : pp:Sc.t -> (Point.t * Point.t * proof) array -> bool
(** Batched CVrfy across (prev, next, proof) triples under one pp:
    a single multi-scalar multiplication replaces per-step
    verification. It rejects any statement outside the prime-order
    subgroup, and otherwise accepts the steps every {!c_vrfy} accepts,
    except with probability 2⁻¹²⁸ ({!Monet_sigma.Stadler.verify_batch}). *)

val opens : Point.t -> Sc.t -> bool
(** Does a bare witness open a statement (Y = y·G)? *)

val randomize : pair -> r:Sc.t -> pair
(** Re-randomization for on-chain unidentifiability (paper §IV-C):
    S' = S + r·G, w' = w + r. *)
