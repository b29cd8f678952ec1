(** LSAG linkable ring signatures (Liu–Wei–Wong '04, in the Monero
    style), with adaptor ("pre-signature") support — and the one ring
    walk that every flavour in this library runs.

    A signature over a ring P_0..P_{n-1} with real index π and secret
    key k (P_π = k·G) is (c_0, s_0..s_{n-1}, I) where I = k·Hp(P_π) is
    the key image. Verification walks the ring:

      L_i = s_i·G + c_i·P_i        R_i = s_i·Hp(P_i) + c_i·I
      c_{i+1 mod n} = H(m, L_i, R_i)

    and accepts iff the walk closes (reproduces c_0). Two signatures
    with the same key image are linked — the ledger uses this for
    double-spend detection.

    The walk is written once, over rings whose members are columns of
    k keys with the key image on row 0: slot i carries one response
    per row, row j adds the leg L_{j,i} = s_{j,i}·G + c_i·K_{j,i}, and
    the challenge hashes H(m, L_0, R, L_1 … L_{k−1}) under a
    per-flavour tag. LSAG is k = 1 under "lsag"; {!Mlsag} is k = 2
    under "mlsag"; {!Two_party} and {!Two_party_ct} run the same walk
    from a joint session.

    The adaptor variant offsets the commitment at the real index by a
    two-leg statement (see {!Stmt}); adapting adds the witness to s_π,
    after which the signature verifies under the standard equations
    and is indistinguishable from a non-adaptor LSAG. *)

open Monet_ec

type signature = { c0 : Sc.t; ss : Sc.t array; key_image : Point.t }

type pre_signature = {
  p_c0 : Sc.t;
  p_ss : Sc.t array;
  p_key_image : Point.t;
  p_pi : int; (* real index: secret, shared only between channel parties *)
}

(** Hp(P), the base of the key-image leg. *)
let hp (vk : Point.t) : Point.t = Point.hash_to_point "lsag-hp" (Point.encode vk)

let hp_of_ring (ring : Point.t array) : Point.t array = Array.map hp ring
let key_image ~(sk : Sc.t) ~(vk : Point.t) : Point.t = Point.mul sk (hp vk)

(* --- The ring walk, over k rows --- *)

(** A ring's public inputs to the walk: the flavour's challenge tag,
    the message, the ring as k rows of n keys ([w_rows.(j).(i)] is
    slot i's row-j key) and Hp of row 0. The key image is the
    signer's, passed beside it. *)
type walk = {
  w_tag : string;
  w_msg : string;
  w_rows : Point.t array array;
  w_hps : Point.t array;
}

let walk ~(tag : string) ~(msg : string) ?hps (rows : Point.t array array) : walk =
  let hps = match hps with Some h -> h | None -> hp_of_ring rows.(0) in
  { w_tag = tag; w_msg = msg; w_rows = rows; w_hps = hps }

(* c = H_tag(m, L_0, R, L_1 … L_{k−1}) *)
let challenge (tag : string) (msg : string) (ls : Point.t array) (r : Point.t) : Sc.t =
  Sc.of_hash tag
    (msg :: Point.encode ls.(0) :: Point.encode r
    :: List.init (Array.length ls - 1) (fun j -> Point.encode ls.(j + 1)))

(* Ring-walk provenance: one bump per ring slot walked, in every
   flavour and at every entry point (DESIGN.md §3.8). *)
let m_step = Monet_obs.Metrics.counter "sig.lsag_step"

(* Walk one slot under key image [ki]: from c_i and slot i's responses
   ([ss.(j).(i)] for row j) to c_{i+1}. [stmt] adds its legs to L_0
   and R: the real slot of a pre-verification. *)
let step (w : walk) (ki : Point.t) ?(stmt : Stmt.t option) (c : Sc.t) (i : int)
    (ss : Sc.t array array) : Sc.t =
  Monet_obs.Metrics.bump m_step;
  let ls = Array.mapi (fun j row -> Point.double_mul c row.(i) ss.(j).(i)) w.w_rows in
  let r = Point.mul2 ss.(0).(i) w.w_hps.(i) c ki in
  match stmt with
  | None -> challenge w.w_tag w.w_msg ls r
  | Some st ->
      ls.(0) <- Point.add ls.(0) st.Stmt.yg;
      challenge w.w_tag w.w_msg ls (Point.add r st.Stmt.yhp)

(* The real signer's ring position is what linkable ring signatures
   hide — treat it as secret material for the constant-time lint.
   The reference LSAG structure below *does* index and branch on it
   (decoy fill cycles from pi+1); those findings are accepted for the
   simulation-grade kernel via tools/lint/allow.sexp, which documents
   the residual side channel instead of silencing it.
   (* lint: secret: pi *) *)

(** Open the walk at π with L_0 = [l0], R = [r] and L_j = a_j·G for
    each row j ≥ 1 (a_j = [nonces.(j-1)]); then, slot by slot from π+1
    round to π, draw one response per row from [g], in row order, and
    walk on. Rows j ≥ 1 are answered at π with [keys.(j-1)]; row 0's
    real response is left to the caller. Returns (c_0, c_π, rows). *)
let open_walk (w : walk) (ki : Point.t) ~(pi : int) (g : Monet_hash.Drbg.t) ~(l0 : Point.t)
    ~(r : Point.t) ~(nonces : Sc.t array) ~(keys : Sc.t array) :
    Sc.t * Sc.t * Sc.t array array =
  let n = Array.length w.w_hps in
  let cs = Array.make n Sc.zero in
  let ss = Array.map (fun _ -> Array.make n Sc.zero) w.w_rows in
  cs.((pi + 1) mod n) <-
    challenge w.w_tag w.w_msg (Array.append [| l0 |] (Array.map Point.mul_base nonces)) r;
  for off = 1 to n - 1 do
    let i = (pi + off) mod n in
    Array.iter (fun row -> row.(i) <- Sc.random_nonzero g) ss;
    cs.((i + 1) mod n) <- step w ki cs.(i) i ss
  done;
  Array.iteri (fun j x -> ss.(j + 1).(pi) <- Sc.sub nonces.(j) (Sc.mul cs.(pi) x)) keys;
  (cs.(0), cs.(pi), ss)

(** Walk the whole ring from c_0 and accept iff it closes. With
    [at = (π, stmt)] the real slot's L_0 and R carry the statement's
    legs (pre-verification); no other slot adds anything. *)
let closes (w : walk) (ki : Point.t) ?(at : (int * Stmt.t) option) (c0 : Sc.t)
    (ss : Sc.t array array) : bool =
  let n = Array.length w.w_hps in
  n > 0
  && Array.for_all (fun row -> Array.length row = n) w.w_rows
  && Array.length ss = Array.length w.w_rows
  && Array.for_all (fun s -> Array.length s = n) ss
  && (match at with None -> true | Some (real, _) -> real >= 0 && real < n)
  &&
  let c = ref c0 in
  for i = 0 to n - 1 do
    let stmt = match at with Some (real, st) when real = i -> Some st | _ -> None in
    c := step w ki ?stmt !c i ss
  done;
  Sc.equal !c c0

(** One signer holding every row's key at π ([sks.(j)] for row j)
    draws its k nonces, then the decoys, from [g]; [stmt] offsets L_0
    and R at π. Returns (c_0, responses by row, key image). *)
let sign_rows (g : Monet_hash.Drbg.t) (w : walk) ~(pi : int) ~(sks : Sc.t array)
    ~(stmt : Stmt.t) : Sc.t * Sc.t array array * Point.t =
  let ki = Point.mul sks.(0) w.w_hps.(pi) in
  let alphas = Array.map (fun _ -> Sc.random_nonzero g) sks in
  let k = Array.length sks in
  let c0, c_pi, ss =
    open_walk w ki ~pi g
      ~l0:(Point.add (Point.mul_base alphas.(0)) stmt.Stmt.yg)
      ~r:(Point.add (Point.mul alphas.(0) w.w_hps.(pi)) stmt.Stmt.yhp)
      ~nonces:(Array.sub alphas 1 (k - 1)) ~keys:(Array.sub sks 1 (k - 1))
  in
  ss.(0).(pi) <- Sc.sub alphas.(0) (Sc.mul c_pi sks.(0));
  (c0, ss, ki)

(* --- LSAG: the one-row walk --- *)

let ring_walk ~(msg : string) ?hps (ring : Point.t array) : walk =
  walk ~tag:"lsag" ~msg ?hps [| ring |]

(* The commitment at the real index is offset by the statement legs,
   producing a pre-signature response. *)
let pre_sign (g : Monet_hash.Drbg.t) ~(ring : Point.t array) ~(pi : int)
    ~(sk : Sc.t) ~(msg : string) ~(stmt : Stmt.t) : pre_signature =
  let n = Array.length ring in
  if n = 0 then invalid_arg "Lsag.sign: empty ring";
  if pi < 0 || pi >= n then invalid_arg "Lsag.sign: bad index";
  if not (Point.equal ring.(pi) (Point.mul_base sk)) then
    invalid_arg "Lsag.sign: secret key does not match ring slot";
  let p_c0, ss, p_key_image = sign_rows g (ring_walk ~msg ring) ~pi ~sks:[| sk |] ~stmt in
  { p_c0; p_ss = ss.(0); p_key_image; p_pi = pi }

(* A plain signature is the pre-signature under the zero statement. *)
let sign (g : Monet_hash.Drbg.t) ~(ring : Point.t array) ~(pi : int) ~(sk : Sc.t)
    ~(msg : string) : signature =
  let p = pre_sign g ~ring ~pi ~sk ~msg ~stmt:Stmt.zero in
  { c0 = p.p_c0; ss = p.p_ss; key_image = p.p_key_image }

(** [hps], when given, are the ring's Hp(Pᵢ) — the batch verifier
    ({!Batch.lsag}) derives them once per distinct ring and reuses
    them across every signature over that ring. *)
let verify ?(hps : Point.t array option) ~(ring : Point.t array) ~(msg : string)
    (sg : signature) : bool =
  closes (ring_walk ~msg ?hps ring) sg.key_image sg.c0 [| sg.ss |]

(** Verify a pre-signature: the ring walk must close when the real
    index's commitments are offset by the statement. *)
let pre_verify ~(ring : Point.t array) ~(msg : string) ~(stmt : Stmt.t)
    (p : pre_signature) : bool =
  closes (ring_walk ~msg ring) p.p_key_image ~at:(p.p_pi, stmt) p.p_c0 [| p.p_ss |]

(** Partially adapt: absorb one witness, leaving a pre-signature that
    still awaits the remaining statement's witness. Used for AMHL
    locks, where the locked pre-signature is concealed both by the
    channel-state statement and by the payment lock. *)
let partial_adapt (p : pre_signature) ~(y : Sc.t) : pre_signature =
  let ss = Array.copy p.p_ss in
  ss.(p.p_pi) <- Sc.add ss.(p.p_pi) y;
  { p with p_ss = ss }

let adapt (p : pre_signature) ~(y : Sc.t) : signature =
  let q = partial_adapt p ~y in
  { c0 = q.p_c0; ss = q.p_ss; key_image = q.p_key_image }

let ext (sg : signature) (p : pre_signature) : Sc.t =
  Sc.sub sg.ss.(p.p_pi) p.p_ss.(p.p_pi)

(** Linkability: same key image ⇔ same signing key. *)
let linked (a : signature) (b : signature) : bool =
  Point.equal a.key_image b.key_image

(* Codec of a walk: c_0, n, each row's n responses in row order, then
   the key image. *)
let encode_walk (w : Monet_util.Wire.writer) (c0 : Sc.t) (rows : Sc.t array array)
    (ki : Point.t) =
  Monet_util.Wire.write_fixed w (Sc.to_bytes_le c0);
  Monet_util.Wire.write_u32 w (Array.length rows.(0));
  Array.iter (Array.iter (fun s -> Monet_util.Wire.write_fixed w (Sc.to_bytes_le s))) rows;
  Monet_util.Wire.write_fixed w (Point.encode ki)

let decode_walk ~(name : string) ~(k : int) (r : Monet_util.Wire.reader) :
    Sc.t * Sc.t array array * Point.t =
  let c0 = Sc.of_bytes_le (Monet_util.Wire.read_fixed r 32) in
  let n = Monet_util.Wire.read_u32 r in
  if n > 4096 then invalid_arg (name ^ ": ring too large");
  let rows =
    Array.init k (fun _ ->
        Array.init n (fun _ -> Sc.of_bytes_le (Monet_util.Wire.read_fixed r 32)))
  in
  (c0, rows, Point.decode_exn (Monet_util.Wire.read_fixed r 32))

let encode (w : Monet_util.Wire.writer) (sg : signature) =
  encode_walk w sg.c0 [| sg.ss |] sg.key_image

let decode (r : Monet_util.Wire.reader) : signature =
  let c0, rows, key_image = decode_walk ~name:"Lsag.decode" ~k:1 r in
  { c0; ss = rows.(0); key_image }

let encode_pre (w : Monet_util.Wire.writer) (p : pre_signature) =
  encode_walk w p.p_c0 [| p.p_ss |] p.p_key_image;
  Monet_util.Wire.write_u32 w p.p_pi

let decode_pre (r : Monet_util.Wire.reader) : pre_signature =
  let p_c0, rows, p_key_image = decode_walk ~name:"Lsag.decode_pre" ~k:1 r in
  { p_c0; p_ss = rows.(0); p_key_image; p_pi = Monet_util.Wire.read_u32 r }
