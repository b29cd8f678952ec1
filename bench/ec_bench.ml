(* EC kernel benchmark — the tracked baseline for the ten-limb field
   and the wNAF/Straus scalar-multiplication rewrite (DESIGN.md §3.5).

   Emits BENCH_ec.json with ops/sec for the hot EC operations next to
   the seed implementation (Bn-backed field, 4-bit windowed ladder),
   which is re-run in-process from Fe_ref plus an inline copy of the
   original point arithmetic. The committed BENCH_ec.json at the repo
   root is produced by running this without flags:

     dune exec bench/ec_bench.exe -- -o BENCH_ec.json

   `--smoke` runs everything with tiny iteration counts and then
   re-reads the emitted file through a small JSON parser, failing if it
   is malformed or missing a measurement — wired into `dune build
   @bench-smoke` (and the `check` alias) as a cheap regression guard. *)

module Ch = Monet_channel.Channel
open Monet_ec

let drbg = Monet_hash.Drbg.of_int 0xec511

(* --- Seed implementation (the baseline side) ----------------------

   A verbatim-in-spirit copy of the pre-optimization point arithmetic,
   instantiated over Fe_ref: extended coordinates with the same
   add-2008-hwcd-3 / dbl-2008-hwcd formulas, and the original 4-bit
   windowed ladder for both variable-base and fixed-base. *)

module Ref_point = struct
  type t = { x : Fe_ref.t; y : Fe_ref.t; z : Fe_ref.t; t : Fe_ref.t }

  let identity = { x = Fe_ref.zero; y = Fe_ref.one; z = Fe_ref.one; t = Fe_ref.zero }

  let of_affine x y = { x; y; z = Fe_ref.one; t = Fe_ref.mul x y }

  let base =
    of_affine
      (Fe_ref.of_hex "216936d3cd6e53fec0a4e231fdd6dc5c692cc7609525a7b2c9562d608f25d51a")
      (Fe_ref.of_hex "6666666666666666666666666666666666666666666666666666666666666658")

  let d2 = Fe_ref.add Fe_ref.d Fe_ref.d

  let add (p : t) (q : t) : t =
    let a = Fe_ref.mul (Fe_ref.sub p.y p.x) (Fe_ref.sub q.y q.x) in
    let b = Fe_ref.mul (Fe_ref.add p.y p.x) (Fe_ref.add q.y q.x) in
    let c = Fe_ref.mul (Fe_ref.mul p.t d2) q.t in
    let dd = Fe_ref.mul (Fe_ref.add p.z p.z) q.z in
    let e = Fe_ref.sub b a in
    let f = Fe_ref.sub dd c in
    let g = Fe_ref.add dd c in
    let h = Fe_ref.add b a in
    { x = Fe_ref.mul e f; y = Fe_ref.mul g h; t = Fe_ref.mul e h; z = Fe_ref.mul f g }

  let double (p : t) : t =
    let a = Fe_ref.sq p.x in
    let b = Fe_ref.sq p.y in
    let z2 = Fe_ref.sq p.z in
    let c = Fe_ref.add z2 z2 in
    let dd = Fe_ref.neg a in
    let e = Fe_ref.sub (Fe_ref.sub (Fe_ref.sq (Fe_ref.add p.x p.y)) a) b in
    let g = Fe_ref.add dd b in
    let f = Fe_ref.sub g c in
    let h = Fe_ref.sub dd b in
    { x = Fe_ref.mul e f; y = Fe_ref.mul g h; t = Fe_ref.mul e h; z = Fe_ref.mul f g }

  (* The seed's variable-time 4-bit windowed ladder. *)
  let mul (k : Sc.t) (p : t) : t =
    let n = Bn.num_bits k in
    if n = 0 then identity
    else begin
      let table = Array.make 15 p in
      for j = 1 to 14 do
        table.(j) <- add table.(j - 1) p
      done;
      let windows = (n + 3) / 4 in
      let acc = ref identity in
      for w = windows - 1 downto 0 do
        acc := double (double (double (double !acc)));
        let digit =
          (if Bn.testbit k ((4 * w) + 3) then 8 else 0)
          lor (if Bn.testbit k ((4 * w) + 2) then 4 else 0)
          lor (if Bn.testbit k ((4 * w) + 1) then 2 else 0)
          lor if Bn.testbit k (4 * w) then 1 else 0
        in
        if digit <> 0 then acc := add !acc table.(digit - 1)
      done;
      !acc
    end

  (* The seed's fixed-base table: table.(w).(j) = (j+1)·16^w·B. *)
  let base_table : t array array lazy_t =
    lazy
      (Array.init 64 (fun w ->
           let step = ref base in
           for _ = 1 to 4 * w do
             step := double !step
           done;
           let row = Array.make 15 identity in
           row.(0) <- !step;
           for j = 1 to 14 do
             row.(j) <- add row.(j - 1) !step
           done;
           row))

  let mul_base (k : Sc.t) : t =
    let table = Lazy.force base_table in
    let acc = ref identity in
    let bytes = Sc.to_bytes_le k in
    for i = 0 to 31 do
      let byte = Char.code bytes.[i] in
      let lo = byte land 0xf and hi = byte lsr 4 in
      if lo <> 0 then acc := add !acc table.(2 * i).(lo - 1);
      if hi <> 0 then acc := add !acc table.((2 * i) + 1).(hi - 1)
    done;
    !acc

  let double_mul (a : Sc.t) (p : t) (b : Sc.t) : t = add (mul a p) (mul b base)
end

(* --- Measurement --------------------------------------------------- *)

let ops_per_sec ~iters (f : unit -> unit) : float =
  f () (* warm up: forces lazy tables, fills caches *);
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Sys.time () -. t0 in
  float_of_int iters /. Float.max dt 1e-9

type entry = {
  name : string;
  ops : float;
  baseline : float option; (* seed implementation, same machine *)
  note : string option;
}

let entry ?baseline ?note name ops = { name; ops; baseline; note }

let speedup (e : entry) : float option =
  match e.baseline with
  | Some b when b > 0.0 -> Some (e.ops /. b)
  | _ -> None

(* --- JSON out ------------------------------------------------------ *)

let json_of_entries ~mode (entries : entry list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"monet-ec-bench/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b "  \"unit\": \"ops_per_sec\",\n";
  Buffer.add_string b "  \"obs_registry\": \"disabled\",\n";
  Buffer.add_string b "  \"results\": {\n";
  List.iteri
    (fun i e ->
      Buffer.add_string b (Printf.sprintf "    \"%s\": {\n" e.name);
      Buffer.add_string b (Printf.sprintf "      \"ops_per_sec\": %.2f" e.ops);
      (match e.baseline with
      | Some bl ->
          Buffer.add_string b
            (Printf.sprintf ",\n      \"baseline_ops_per_sec\": %.2f" bl);
          Buffer.add_string b
            (Printf.sprintf ",\n      \"speedup\": %.2f" (Option.get (speedup e)))
      | None -> ());
      (match e.note with
      | Some n -> Buffer.add_string b (Printf.sprintf ",\n      \"note\": \"%s\"" n)
      | None -> ());
      Buffer.add_string b "\n    }";
      if i < List.length entries - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    entries;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* Minimal JSON parser (objects / strings / numbers — the subset we
   emit), used by --smoke to validate the file we just wrote. *)
exception Bad_json of string

let parse_json (s : string) : string list =
  let n = String.length s in
  let i = ref 0 in
  let keys = ref [] in
  let peek () = if !i >= n then raise (Bad_json "unexpected eof") else s.[!i] in
  let adv () = incr i in
  let rec skip_ws () =
    if !i < n then
      match s.[!i] with ' ' | '\n' | '\t' | '\r' -> adv (); skip_ws () | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Bad_json (Printf.sprintf "expected '%c'" c));
    adv ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      adv ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        Buffer.add_char b (peek ());
        adv ();
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !i in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !i < n && num_char s.[!i] do
      adv ()
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f when Float.is_finite f -> ()
    | _ -> raise (Bad_json "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' -> parse_obj ()
    | '"' -> ignore (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | c -> raise (Bad_json (Printf.sprintf "unexpected '%c'" c))
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then adv ()
    else
      let rec members () =
        skip_ws ();
        keys := parse_string () :: !keys;
        expect ':';
        parse_value ();
        skip_ws ();
        if peek () = ',' then begin
          adv ();
          members ()
        end
        else expect '}'
      in
      members ()
  in
  parse_value ();
  skip_ws ();
  if !i <> n then raise (Bad_json "trailing data");
  !keys

(* --- Channel-update setup (mirrors bench/main.ml) ------------------- *)

let bench_cfg ~vcof_reps =
  { Ch.default_config with Ch.vcof_reps = Some vcof_reps; ring_size = 11;
    n_escrowers = 5; escrow_threshold = 3; precompute = 0 }

let make_channel ~cfg (label : string) : Ch.channel =
  let env = Ch.make_env (Monet_hash.Drbg.split drbg label) in
  let g = Monet_hash.Drbg.split drbg (label ^ "/w") in
  let wa = Monet_xmr.Wallet.create ~ring_size:cfg.Ch.ring_size g ~label:"a" in
  let wb = Monet_xmr.Wallet.create ~ring_size:cfg.Ch.ring_size g ~label:"b" in
  let fund w amount =
    let kp = Monet_sig.Sig_core.gen g in
    Monet_xmr.Ledger.ensure_decoys g env.Ch.ledger ~amount ~n:(3 * cfg.Ch.ring_size);
    let idx =
      Monet_xmr.Ledger.genesis_output env.Ch.ledger
        { Monet_xmr.Tx.otk = kp.Monet_sig.Sig_core.vk; amount }
    in
    Monet_xmr.Wallet.adopt w ~global_index:idx ~keypair:kp ~amount
  in
  fund wa 5000;
  fund wb 5000;
  match Ch.establish ~cfg env ~id:1 ~wallet_a:wa ~wallet_b:wb ~bal_a:5000 ~bal_b:5000 with
  | Ok (c, _) -> c
  | Error e -> failwith ("establish: " ^ Ch.error_to_string e)

(* --- The suite ------------------------------------------------------ *)

let run ~smoke : entry list =
  let scale full tiny = if smoke then tiny else full in
  let sink = ref 0 in
  (* Pre-generate operands so Drbg cost stays out of the loops. *)
  let fe_b = Fe.random drbg in
  let fe_b_bytes = Fe.to_bytes_le fe_b in
  let fer_b = Fe_ref.of_bytes_le fe_b_bytes in
  let scalars = Array.init 64 (fun _ -> Sc.random_nonzero drbg) in
  let p = Point.mul_base (Sc.random_nonzero drbg) in
  let pr = Ref_point.mul (Sc.random_nonzero drbg) Ref_point.base in
  let idx = ref 0 in
  let next_sc () =
    idx := (!idx + 1) land 63;
    scalars.(!idx)
  in
  (* fe_mul: four independent tail-recursive chains of 250 muls each,
     mirroring how point formulas issue field muls (8 independent muls
     per group add, not one serial chain), and amortizing per-call loop
     overhead to nothing. Identical structure on both sides. *)
  let batch = 1000 (* total muls per closure call, 4 x 250 *) in
  let fe_x = ref (Fe.random drbg)
  and fe_y = ref (Fe.random drbg)
  and fe_z = ref (Fe.random drbg)
  and fe_w = ref (Fe.random drbg) in
  let rec fe_chain4 a b c d n =
    if n = 0 then begin
      fe_x := a;
      fe_y := b;
      fe_z := c;
      fe_w := d
    end
    else fe_chain4 (Fe.mul a fe_b) (Fe.mul b fe_b) (Fe.mul c fe_b) (Fe.mul d fe_b) (n - 1)
  in
  let fe_mul_ops =
    float_of_int batch
    *. ops_per_sec ~iters:(scale 20_000 2) (fun () ->
           fe_chain4 !fe_x !fe_y !fe_z !fe_w (batch / 4))
  in
  let fer_of v = Fe_ref.of_bytes_le (Fe.to_bytes_le v) in
  let fer_x = ref (fer_of !fe_x)
  and fer_y = ref (fer_of !fe_y)
  and fer_z = ref (fer_of !fe_z)
  and fer_w = ref (fer_of !fe_w) in
  let rec fer_chain4 a b c d n =
    if n = 0 then begin
      fer_x := a;
      fer_y := b;
      fer_z := c;
      fer_w := d
    end
    else
      fer_chain4 (Fe_ref.mul a fer_b) (Fe_ref.mul b fer_b) (Fe_ref.mul c fer_b)
        (Fe_ref.mul d fer_b) (n - 1)
  in
  let fe_mul_base_ops =
    float_of_int batch
    *. ops_per_sec ~iters:(scale 2_000 1) (fun () ->
           fer_chain4 !fer_x !fer_y !fer_z !fer_w (batch / 4))
  in
  (* The generic-bignum field mul the seed kept underneath the
     specialized one: Bn schoolbook multiplication followed by
     [reduce_fold]'s fold + repeated-subtraction trim. This is the
     "variable-length Bn.t schoolbook + repeated subtraction" path the
     seed's non-specialized field operations (pow, inv, sqrt towers)
     were built from. *)
  let bn_mul a b = Fe_ref.reduce_fold (Bn.mul a b) in
  let rec bng_chain4 a b c d n =
    if n = 0 then begin
      fer_x := a;
      fer_y := b;
      fer_z := c;
      fer_w := d
    end
    else
      bng_chain4 (bn_mul a fer_b) (bn_mul b fer_b) (bn_mul c fer_b)
        (bn_mul d fer_b) (n - 1)
  in
  let fe_mul_generic_ops =
    float_of_int batch
    *. ops_per_sec ~iters:(scale 500 1) (fun () ->
           bng_chain4 !fer_x !fer_y !fer_z !fer_w (batch / 4))
  in
  sink := !sink lxor String.length (Fe.to_bytes_le !fe_x);
  sink := !sink lxor String.length (Fe_ref.to_bytes_le !fer_x);
  (* Variable-base scalar mul (p is not B, so no fixed-base shortcut). *)
  let pmul_ops =
    ops_per_sec ~iters:(scale 500 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.mul (next_sc ()) p))
  in
  let pmul_baseline =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        sink := !sink lxor Hashtbl.hash (Ref_point.mul (next_sc ()) pr))
  in
  (* Fixed-base. *)
  let mb_ops =
    ops_per_sec ~iters:(scale 3_000 8) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.mul_base (next_sc ())))
  in
  let mb_baseline =
    ops_per_sec ~iters:(scale 200 2) (fun () ->
        sink := !sink lxor Hashtbl.hash (Ref_point.mul_base (next_sc ())))
  in
  (* Straus a·P + b·B vs the seed's two-ladders-and-an-add. *)
  let dm_ops =
    ops_per_sec ~iters:(scale 500 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.double_mul (next_sc ()) p (next_sc ())))
  in
  let dm_baseline =
    ops_per_sec ~iters:(scale 25 1) (fun () ->
        sink :=
          !sink lxor Hashtbl.hash (Ref_point.double_mul (next_sc ()) pr (next_sc ())))
  in
  (* LSAG over a ring of 11 (the paper's setting). *)
  let ring_size = 11 in
  let pi = 4 in
  let sk = Sc.random_nonzero drbg in
  let ring =
    Array.init ring_size (fun i ->
        if i = pi then Point.mul_base sk else Point.mul_base (Sc.random_nonzero drbg))
  in
  let sg = ref (Monet_sig.Lsag.sign drbg ~ring ~pi ~sk ~msg:"bench") in
  let lsag_sign_ops =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        sg := Monet_sig.Lsag.sign drbg ~ring ~pi ~sk ~msg:"bench")
  in
  let lsag_verify_ops =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        if not (Monet_sig.Lsag.verify ~ring ~msg:"bench" !sg) then
          failwith "lsag verify failed in bench")
  in
  (* Pippenger MSM at batch 64, per-term rate, vs computing the same
     sum with 64 individual scalar muls and adds. *)
  let msm_n = 64 in
  let msm_terms =
    Array.init msm_n (fun _ ->
        (Sc.random_nonzero drbg, Point.mul_base (Sc.random_nonzero drbg)))
  in
  let msm_ops =
    float_of_int msm_n
    *. ops_per_sec ~iters:(scale 100 2) (fun () ->
           sink := !sink lxor Hashtbl.hash (Point.msm msm_terms))
  in
  let msm_baseline =
    float_of_int msm_n
    *. ops_per_sec ~iters:(scale 20 1) (fun () ->
           let acc = ref Point.identity in
           Array.iter (fun (k, q) -> acc := Point.add !acc (Point.mul k q)) msm_terms;
           sink := !sink lxor Hashtbl.hash !acc)
  in
  (* Schnorr batch verification at batch 64 (the ISSUE's ≥3× point):
     one RLC + MSM for the whole batch vs a loop of individual
     verifies (one Straus pass each). *)
  let bv_n = 64 in
  let bv_items =
    Array.init bv_n (fun i ->
        let kp = Monet_sig.Sig_core.gen drbg in
        let msg = Printf.sprintf "batch-%d" i in
        { Monet_sig.Batch.vk = kp.Monet_sig.Sig_core.vk; msg;
          sg = Monet_sig.Sig_core.sign drbg kp msg })
  in
  let batch_verify_ops =
    float_of_int bv_n
    *. ops_per_sec ~iters:(scale 100 2) (fun () ->
           if not (Monet_sig.Batch.verify_sigs bv_items) then
             failwith "batch verify failed in bench")
  in
  let batch_verify_baseline =
    float_of_int bv_n
    *. ops_per_sec ~iters:(scale 20 1) (fun () ->
           Array.iter
             (fun (it : Monet_sig.Batch.sig_item) ->
               if not (Monet_sig.Sig_core.verify it.vk it.msg it.sg) then
                 failwith "verify failed in bench")
             bv_items)
  in
  (* The VCOF step-proof kernels (DESIGN.md §3.2, §3.5). *)
  let clock = "clock: Sys.time (CPU time)" in
  let fe_inv_ops = ops_per_sec ~iters:(scale 20_000 4) (fun () -> fe_x := Fe.inv !fe_x) in
  let fe_inv_baseline =
    ops_per_sec ~iters:(scale 2_000 2) (fun () -> fer_x := Fe_ref.inv !fer_x)
  in
  let enc_p = Point.encode p in
  let encode_ops =
    ops_per_sec ~iters:(scale 20_000 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.encode p))
  in
  let decode_ops =
    ops_per_sec ~iters:(scale 20_000 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.decode enc_p))
  in
  let exps = Array.init 64 (fun _ -> Bn.of_bytes_le (Monet_hash.Drbg.bytes drbg 48)) in
  let next_exp () =
    idx := (!idx + 1) land 63;
    exps.(!idx)
  in
  let h = Zl.default_base in
  let zl_ops =
    ops_per_sec ~iters:(scale 20_000 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Zl.pow h (next_exp ())))
  in
  let zl_ctx = Bn.Barrett.create Sc.l in
  let zl_baseline =
    ops_per_sec ~iters:(scale 1_000 2) (fun () ->
        sink := !sink lxor Hashtbl.hash (Bn.Barrett.pow_mod zl_ctx h (next_exp ())))
  in
  let module Stadler = Monet_sigma.Stadler in
  let prove_ops =
    ops_per_sec ~iters:(scale 50 1) (fun () ->
        let proof, _, _ = Stadler.prove drbg ~x:(next_sc ()) ~h in
        sink := !sink lxor Array.length proof.Stadler.reps)
  in
  (* A published chain of 39 steps: Y'ᵢ = Yᵢ₊₁. *)
  let chain_n = 39 in
  let chain =
    let x = ref (Sc.random_nonzero drbg) in
    Array.init chain_n (fun _ ->
        let proof, y, y' = Stadler.prove drbg ~x:!x ~h in
        x := Zl.pow h !x;
        (y, y', proof))
  in
  let verify_batch_ops =
    float_of_int chain_n
    *. ops_per_sec ~iters:(scale 10 1) (fun () ->
           if not (Stadler.verify_batch ~h chain) then failwith "stadler batch failed in bench")
  in
  (* One full channel update (both parties, incl. KES cross-signing),
     with a reduced VCOF repetition count so the Stadler proofs don't
     drown the EC signal; the rep count is recorded in the entry. *)
  let vcof_reps = scale 8 2 in
  let c = make_channel ~cfg:(bench_cfg ~vcof_reps) "ec-bench" in
  let upd_ops =
    ops_per_sec ~iters:(scale 10 1) (fun () ->
        match Ch.update c ~amount_from_a:1 with
        | Ok _ -> ()
        | Error e -> failwith (Ch.error_to_string e))
  in
  (* The two-row walk (MLSAG, a RingCT input) over the LSAG rows'
     ring, with a commitment-difference key on row 2; drawn last so the
     rows above keep their operands. *)
  let z = Sc.random_nonzero drbg in
  let cols =
    Array.init ring_size (fun i ->
        { Monet_sig.Mlsag.p = ring.(i);
          d = Point.mul_base (if i = pi then z else Sc.random_nonzero drbg) })
  in
  let msg_sg = ref (Monet_sig.Mlsag.sign drbg ~ring:cols ~pi ~sk ~z ~msg:"bench") in
  let mlsag_sign_ops =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        msg_sg := Monet_sig.Mlsag.sign drbg ~ring:cols ~pi ~sk ~z ~msg:"bench")
  in
  let mlsag_verify_ops =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        if not (Monet_sig.Mlsag.verify ~ring:cols ~msg:"bench" !msg_sg) then
          failwith "mlsag verify failed in bench")
  in
  ignore (Sys.opaque_identity !sink);
  [
    entry "fe_mul" fe_mul_ops ~baseline:fe_mul_generic_ops
      ~note:"baseline: seed generic path (Bn schoolbook mul + reduce_fold trim)";
    entry "fe_mul_vs_specialized" fe_mul_ops ~baseline:fe_mul_base_ops
      ~note:
        "stricter baseline: the seed's hand-specialized 26-bit-limb Fe_ref.mul";
    entry "point_mul" pmul_ops ~baseline:pmul_baseline;
    entry "mul_base" mb_ops ~baseline:mb_baseline;
    entry "double_mul" dm_ops ~baseline:dm_baseline;
    entry "lsag_sign_ring11" lsag_sign_ops ~note:("one-row ring walk, ring of 11; " ^ clock);
    entry "lsag_verify_ring11" lsag_verify_ops ~note:("one-row ring walk, ring of 11; " ^ clock);
    entry "mlsag_sign_ring11" mlsag_sign_ops ~note:("two-row ring walk, ring of 11; " ^ clock);
    entry "mlsag_verify_ring11" mlsag_verify_ops
      ~note:("two-row ring walk, ring of 11; " ^ clock);
    entry "msm" msm_ops ~baseline:msm_baseline
      ~note:
        "64-term Pippenger MSM, per-term rate; baseline: same sum by 64 \
         point_mul + add";
    entry "batch_verify" batch_verify_ops ~baseline:batch_verify_baseline
      ~note:
        "64 Schnorr signatures by RLC batch (one MSM), per-signature rate; \
         baseline: individual verifies";
    entry "channel_update" upd_ops
      ~note:(Printf.sprintf "vcof_reps=%d, both parties incl. KES" vcof_reps);
    entry "fe_inv" fe_inv_ops ~baseline:fe_inv_baseline
      ~note:("ref10 addition chain; baseline: Fe_ref.inv, a ladder over a Bn exponent; " ^ clock);
    entry "point_encode" encode_ops ~note:("one inversion per point; " ^ clock);
    entry "point_decode" decode_ops ~note:("RFC 8032 single-exponentiation x recovery; " ^ clock);
    entry "zl_pow_384" zl_ops ~baseline:zl_baseline
      ~note:
        ("h^x mod l, 384-bit x, Montgomery comb; baseline: Bn.Barrett.pow_mod square-and-multiply; "
        ^ clock);
    entry "stadler_prove_80" prove_ops ~note:("one 80-repetition VCOF step proof; " ^ clock);
    entry "stadler_verify_batch_39" verify_batch_ops
      ~note:("39 chained 80-repetition proofs in one batch, per-proof rate; " ^ clock);
  ]

let required_keys =
  [
    "fe_mul"; "fe_mul_vs_specialized"; "point_mul"; "mul_base"; "double_mul";
    "lsag_sign_ring11"; "lsag_verify_ring11"; "mlsag_sign_ring11"; "mlsag_verify_ring11";
    "msm"; "batch_verify";
    "channel_update"; "fe_inv"; "point_encode"; "point_decode"; "zl_pow_384";
    "stadler_prove_80"; "stadler_verify_batch_39"; "results"; "schema"; "obs_registry";
  ]

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  (* BENCH_ec.json numbers are only comparable across revisions if the
     metrics registry stayed out of the hot path: assert it is disabled
     and that no counter was ever bumped in this process. *)
  if Monet_obs.Metrics.is_enabled () || Monet_obs.Metrics.total_count () <> 0 then
    failwith "ec_bench must run with the Monet_obs registry disabled";
  let out = ref "BENCH_ec.json" in
  Array.iteri (fun i a -> if a = "-o" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1)) Sys.argv;
  let entries = run ~smoke in
  Printf.printf "%-20s %14s %14s %9s\n" "operation" "ops/sec" "seed ops/sec" "speedup";
  List.iter
    (fun e ->
      Printf.printf "%-20s %14.1f %14s %9s\n" e.name e.ops
        (match e.baseline with Some b -> Printf.sprintf "%.1f" b | None -> "-")
        (match speedup e with Some s -> Printf.sprintf "%.1fx" s | None -> "-"))
    entries;
  let json = json_of_entries ~mode:(if smoke then "smoke" else "full") entries in
  let oc = open_out !out in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  if smoke then begin
    (* Self-validate the emitted file. *)
    let ic = open_in !out in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    let keys = try parse_json contents with Bad_json m -> failwith ("BENCH_ec.json invalid: " ^ m) in
    List.iter
      (fun k ->
        if not (List.mem k keys) then
          failwith (Printf.sprintf "BENCH_ec.json missing key %S" k))
      required_keys;
    Printf.printf "smoke: JSON validated (%d keys)\n%!" (List.length keys)
  end
