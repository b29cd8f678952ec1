(** Stadler-style double-discrete-log proof (cut-and-choose).

    Proves knowledge of an integer x with Y = x·G (on ed25519) and
    Y' = (h^x mod ℓ)·G, under binary challenges with [reps]
    repetitions (soundness error 2^-reps), Fiat–Shamir'd. This is the
    proof system behind VCOF consecutiveness (DESIGN.md §3.2). *)

open Monet_ec

val default_reps : int
(** 80 — soundness 2⁻⁸⁰, the production setting. *)

val response_bytes : int
(** Width of the integer responses (384 bits: witness plus ≥128 bits
    of statistical masking). *)

type rep = { t : Point.t; u : Point.t; resp : Bn.t }
type proof = { reps : rep array }

val size : proof -> int
val encode : Monet_util.Wire.writer -> proof -> unit
val decode : Monet_util.Wire.reader -> proof option
(** [None] on truncated input, a non-canonical or off-curve point, or
    more than 4096 repetitions; never raises. *)

val prove :
  ?context:string ->
  ?reps:int ->
  Monet_hash.Drbg.t ->
  x:Sc.t ->
  h:Sc.t ->
  proof * Point.t * Point.t
(** [prove g ~x ~h] returns (proof, Y, Y') for Y = x·G and
    Y' = (h^x mod ℓ)·G. *)

val verify :
  ?context:string -> h:Sc.t -> y:Point.t -> y':Point.t -> proof -> bool

val verify_batch :
  ?context:string -> h:Sc.t -> (Point.t * Point.t * proof) array -> bool
(** [verify_batch ~h [| (y, y', proof); … |]] rejects unless every
    distinct Y and Y' lies in the prime-order subgroup (ℓ·P = O), then
    folds every repetition equation of every proof into one
    multi-scalar multiplication via a random linear combination
    (DESIGN.md §3.10). Past the subgroup check it accepts iff the
    prime-order part of every repetition equation holds, except with
    probability 2⁻¹²⁸ per batch: it accepts the statements {!verify}
    accepts. A small-order term on a commitment tⱼ or uⱼ can go
    unseen, where {!verify} rejects it; such a term cannot make a false
    statement pass. *)
