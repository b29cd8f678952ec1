(** Stadler-style double-discrete-log proof (cut-and-choose).

    Statement: points (Y, Y') on ed25519 and a public base h ∈ Z_ℓ*.
    The prover knows an integer witness x (0 ≤ x < ℓ) such that

      Y  = x·G            (discrete log on the curve)
      Y' = (h^x mod ℓ)·G  (double discrete log)

    This is exactly the consecutiveness relation of the VCOF chain
    (DESIGN.md §3.2). The protocol runs [reps] independent repetitions
    with binary challenges (soundness error 2^-reps), made
    non-interactive with Fiat–Shamir.

    Per repetition j the prover samples a 384-bit integer r_j (its
    extra 128+ bits statistically mask x over the integers) and
    commits

      t_j = (h^{r_j} mod ℓ)·G      u_j = (r_j mod ℓ)·G

    On challenge bit 0 it reveals r_j (the verifier recomputes both
    commitments); on bit 1 it reveals z_j = r_j - x over the integers,
    and the verifier checks

      t_j = (h^{z_j} mod ℓ)·Y'     u_j = (z_j mod ℓ)·G + Y

    A repetition answerable both ways yields the integer w = r_j - z_j
    with Y = w·G and Y' = (h^w)·G — the same w in both equations — so
    the relation is sound. *)

open Monet_ec

let default_reps = 80
let response_bytes = 48 (* 384-bit masking integers *)

type rep = { t : Point.t; u : Point.t; resp : Bn.t (* r_j or z_j per the bit *) }
type proof = { reps : rep array }

let size (p : proof) : int = 4 + (Array.length p.reps * (32 + 32 + response_bytes))

(* [| t₀; u₀; t₁; u₁; … |] *)
let commitments (reps : rep array) : Point.t array =
  Array.init (2 * Array.length reps) (fun i ->
      let r = reps.(i / 2) in
      if i land 1 = 0 then r.t else r.u)

(* [| Y; Y'; t₀; u₀; … |] encoded with one shared field inversion: the
   strings both the Fiat–Shamir transcript and the batch randomizers
   hash. *)
let encodings ~(y : Point.t) ~(y' : Point.t) (reps : rep array) : string array =
  Point.encode_batch (Array.append [| y; y' |] (commitments reps))

let encode (w : Monet_util.Wire.writer) (p : proof) =
  Monet_util.Wire.write_u32 w (Array.length p.reps);
  let enc = Point.encode_batch (commitments p.reps) in
  Array.iteri
    (fun j r ->
      Monet_util.Wire.write_fixed w enc.(2 * j);
      Monet_util.Wire.write_fixed w enc.((2 * j) + 1);
      Monet_util.Wire.write_fixed w (Bn.to_bytes_le r.resp ~len:response_bytes))
    p.reps

let decode (r : Monet_util.Wire.reader) : proof option =
  let ( let* ) = Option.bind in
  let point () = Point.decode (Monet_util.Wire.read_fixed r 32) in
  let rec reps j acc =
    if j = 0 then Some { reps = Array.of_list (List.rev acc) }
    else
      let* t = point () in
      let* u = point () in
      let resp = Bn.of_bytes_le (Monet_util.Wire.read_fixed r response_bytes) in
      reps (j - 1) ({ t; u; resp } :: acc)
  in
  try
    let n = Monet_util.Wire.read_u32 r in
    if n > 4096 then None else reps n []
  with Monet_util.Wire.Truncated -> None

(* The challenge bits over {!encodings}: ctx, h, Y, Y', then every
   (tⱼ, uⱼ). *)
let challenge_bits ~context ~h (enc : string array) : bool array =
  let tr = Transcript.create "stadler" in
  Transcript.absorb tr ~label:"ctx" context;
  Transcript.absorb tr ~label:"h" (Sc.to_bytes_le h);
  Transcript.absorb tr ~label:"Y" enc.(0);
  Transcript.absorb tr ~label:"Y'" enc.(1);
  let n = (Array.length enc - 2) / 2 in
  for j = 0 to n - 1 do
    Transcript.absorb tr ~label:"t" enc.(2 + (2 * j));
    Transcript.absorb tr ~label:"u" enc.(3 + (2 * j))
  done;
  Transcript.challenge_bits tr ~label:"bits" n

(** [prove g ~x ~h] proves consecutiveness of Y = x·G and
    Y' = (h^x)·G. The caller supplies the witness [x] only; statements
    are recomputed (and also returned for convenience). *)
let prove ?(context = "") ?(reps = default_reps) (g : Monet_hash.Drbg.t) ~(x : Sc.t)
    ~(h : Sc.t) : proof * Point.t * Point.t =
  let y = Point.mul_base x in
  let x' = Zl.pow h x in
  let y' = Point.mul_base x' in
  (* Sample masking integers, all >= x so responses never go negative. *)
  let rec sample () =
    let r = Bn.of_bytes_le (Monet_hash.Drbg.bytes g response_bytes) in
    if Bn.compare r x < 0 then sample () else r
  in
  let rs = Array.init reps (fun _ -> sample ()) in
  let committed =
    Array.map
      (fun r -> { t = Point.mul_base (Zl.pow h r); u = Point.mul_base (Sc.of_bn r); resp = r })
      rs
  in
  let bits = challenge_bits ~context ~h (encodings ~y ~y' committed) in
  let reps_out =
    Array.mapi (fun j c -> if bits.(j) then { c with resp = Bn.sub c.resp x } else c) committed
  in
  ({ reps = reps_out }, y, y')

let verify ?(context = "") ~(h : Sc.t) ~(y : Point.t) ~(y' : Point.t) (p : proof) :
    bool =
  let n = Array.length p.reps in
  n > 0
  &&
  let bits = challenge_bits ~context ~h (encodings ~y ~y' p.reps) in
  let check j =
    let { t; u; resp } = p.reps.(j) in
    if bits.(j) then
      (* resp = z_j: t = (h^z)·Y',  u = (z mod l)·G + Y *)
      Point.equal t (Point.mul (Zl.pow h resp) y')
      && Point.equal u (Point.add (Point.mul_base (Sc.of_bn resp)) y)
    else
      (* resp = r_j: recompute both commitments *)
      Point.equal t (Point.mul_base (Zl.pow h resp))
      && Point.equal u (Point.mul_base (Sc.of_bn resp))
  in
  let rec go j = j >= n || (check j && go (j + 1)) in
  go 0

(* ℓ·P = O for every distinct statement point, each checked once: in a
   chain Y'ᵢ = Yᵢ₊₁, so n steps pay n + 1 checks. *)
let statements_in_subgroup (batch : (Point.t * Point.t * proof) array)
    (encs : string array array) : bool =
  let checked = Hashtbl.create (2 * Array.length batch) in
  let in_subgroup enc pt =
    Hashtbl.mem checked enc
    || (Point.in_prime_subgroup pt && (Hashtbl.replace checked enc (); true))
  in
  let rec go i =
    i >= Array.length batch
    ||
    let y, y', _ = batch.(i) in
    in_subgroup encs.(i).(0) y && in_subgroup encs.(i).(1) y' && go (i + 1)
  in
  go 0

(** Batch-verify step proofs sharing one public base [h] (a
    channel-open burst or a published chain: same pp, many (Y, Y')
    statements). Every per-repetition equation is a group identity —
    bit 0:  (h^r)·G − t = O  and  r·G − u = O
    bit 1:  (h^z)·Y' − t = O  and  z·G + Y − u = O
    — so all of them fold under 128-bit randomizers into a single
    multi-scalar multiplication over 2 points per repetition plus
    (Y, Y') per proof, with the G leg paid once as a fixed-base comb
    multiplication. The modular exponentiations h^resp are inherent
    (one per repetition, batched or not) and are served by {!Zl}'s
    per-base comb tables. Each proof's points are encoded once, for
    both its transcript and the randomizer seed.

    The fold scales each statement's residue by a randomizer sum mod
    ℓ, which kills a residue of order 8 about once in eight tries, so
    every distinct Y and Y' must first pass ℓ·P = O. Past that check
    only the prime-order part of each equation is tested: a
    small-order term on a commitment can go unseen, but it cannot make
    a false statement pass. *)
let verify_batch ?(context = "") ~(h : Sc.t)
    (batch : (Point.t * Point.t * proof) array) : bool =
  let np = Array.length batch in
  if np = 0 then true
  else
    Array.for_all (fun (_, _, p) -> Array.length p.reps > 0) batch
    &&
    let encs = Array.map (fun (y, y', p) -> encodings ~y ~y' p.reps) batch in
    statements_in_subgroup batch encs
    &&
    let total_reps =
      Array.fold_left (fun acc (_, _, p) -> acc + Array.length p.reps) 0 batch
    in
    let parts =
      List.concat
        (List.mapi
           (fun i (_, _, p) ->
             let enc = encs.(i) in
             enc.(0) :: enc.(1)
             :: List.concat
                  (List.mapi
                     (fun j r ->
                       [
                         enc.(2 + (2 * j)); enc.(3 + (2 * j));
                         Bn.to_bytes_le r.resp ~len:response_bytes;
                       ])
                     (Array.to_list p.reps)))
           (Array.to_list batch))
    in
    let zs =
      Schnorr.randomizers ~tag:"stadler"
        (context :: Sc.to_bytes_le h :: parts)
        (2 * total_reps)
    in
    let g_fold = ref Sc.zero in
    let terms = Array.make ((2 * total_reps) + (2 * np)) (Sc.zero, Point.identity) in
    let pos = ref 0 in
    let push z pt =
      terms.(!pos) <- (z, pt);
      incr pos
    in
    let zbase = ref 0 in
    Array.iteri
      (fun i (y, y', p) ->
        let bits = challenge_bits ~context ~h encs.(i) in
        let y_coeff = ref Sc.zero and y'_coeff = ref Sc.zero in
        Array.iteri
          (fun j { t; u; resp } ->
            let za = zs.(!zbase + (2 * j)) and zb = zs.(!zbase + (2 * j) + 1) in
            let hr = Zl.pow h resp in
            if bits.(j) then begin
              (* resp = z: t = (h^z)·Y',  u = (z mod ℓ)·G + Y *)
              y'_coeff := Sc.add !y'_coeff (Sc.mul za hr);
              y_coeff := Sc.add !y_coeff zb;
              g_fold := Sc.add !g_fold (Sc.mul zb (Sc.of_bn resp))
            end
            else
              (* resp = r: t = (h^r)·G,  u = (r mod ℓ)·G *)
              g_fold :=
                Sc.add !g_fold
                  (Sc.add (Sc.mul za hr) (Sc.mul zb (Sc.of_bn resp)));
            push za (Point.neg t);
            push zb (Point.neg u))
          p.reps;
        zbase := !zbase + (2 * Array.length p.reps);
        push !y'_coeff y';
        push !y_coeff y)
      batch;
    Point.is_identity (Point.add (Point.mul_base !g_fold) (Point.msm terms))
