(* The four workloads of the end-to-end benchmark (README.md says why
   each exists). A workload builds its system from the seed — the
   set-up the runner times — and then exposes one operation, which the
   runner times, plus output checks that run outside the timed region.
   Everything goes through the public interfaces of monet_net,
   monet_channel, monet_store and monet_ec. *)

module Ch = Monet_channel.Channel
module Recovery = Monet_channel.Recovery
module Backend = Monet_store.Backend
module Graph = Monet_net.Graph
module Router = Monet_net.Router
module Payment = Monet_net.Payment
module Topo = Monet_net.Topo
module Drbg = Monet_hash.Drbg
module Trace = Monet_obs.Trace

(* What one operation did. [verify] checks its outputs; the runner calls
   it after stopping the operation's timer. *)
type step = {
  error : string option;  (** the operation itself returned an error *)
  bytes : int;  (** wire bytes the operation sent *)
  rounds : int;  (** sequential message legs (channel updates only) *)
  verify : unit -> string option;  (** untimed output check *)
}

type instance = {
  op : int -> step;  (** operation [i], [0 <= i < ops] *)
  finish : unit -> ((string * float) list, string) result;
      (** end-of-run checks, then workload-specific per-layer metrics *)
}

(* How channel statements are produced, which decides whether the
   original-mode statement announcement may appear in a trace. *)
type mode = Batched | Original | No_channel

type t = {
  name : string;
  ops_per_s : int;
      (** op budget per second of [--seconds]; README.md gives the time
          each budget takes on the reference machine *)
  setup_reps : int;  (** set-ups per run; setup_s is their median *)
  mode : mode;
  setup : seed:int -> ops:int -> dir:string -> instance;
}

(* The runner cuts a run's operations, in order, into this many
   consecutive blocks and reports each latency metric from the best
   block (see e2e.ml). *)
let blocks = 5

let ok_step ?(bytes = 0) ?(rounds = 0) verify = { error = None; bytes; rounds; verify }

let failed_step e =
  { error = Some e; bytes = 0; rounds = 0; verify = (fun () -> None) }

let ms_since t0 = Clock.now_ms () -. t0

let open_exn t ~left ~right =
  match Graph.open_channel t ~left ~right ~bal_left:5000 ~bal_right:5000 with
  | Ok (eid, _) -> eid
  | Error e -> failwith ("open channel: " ^ e)

let batch_exn c ~n =
  match Ch.exchange_batches c ~n with
  | Ok _ -> ()
  | Error e -> failwith ("exchange batches: " ^ Ch.error_to_string e)

(* A node pair joined by one real channel, both sides funded 5000. *)
let two_party_channel g =
  let t = Graph.create g in
  let a = Graph.add_node t ~name:"alice" and b = Graph.add_node t ~name:"bob" in
  Graph.fund_node t a ~amount:10_000;
  Graph.fund_node t b ~amount:10_000;
  Graph.channel_exn (Graph.edge t (open_exn t ~left:a ~right:b))

(* Neither party has walked past the end of its precomputed batch. *)
let batch_intact (c : Ch.channel) =
  List.for_all
    (fun (p : Ch.party) ->
      match p.Ch.batch with
      | Some b -> p.Ch.state - b.Ch.base_state < Array.length b.Ch.my_pairs
      | None -> false)
    [ c.Ch.a; c.Ch.b ]

(* --- pay3_opt: 3-hop payments on a ring of batched MoChannels ------- *)

let ring = 8

(* Payment k crosses channels k, k+1, k+2 (mod ring); channel j joins
   nodes j and j+1. *)
let channel_uses ~ops =
  let uses = Array.make ring 0 in
  for k = 0 to ops - 1 do
    for h = 0 to 2 do
      let j = (k + h) mod ring in
      uses.(j) <- uses.(j) + 1
    done
  done;
  uses

let pay3_setup ~seed ~ops ~dir:_ =
  let rng = Random.State.make [| seed; 3 |] in
  let amounts = Array.init ops (fun _ -> 10 + Random.State.int rng 91) in
  let t = Graph.create (Drbg.of_int seed) in
  let nodes = Array.init ring (fun i -> Graph.add_node t ~name:(Printf.sprintf "n%d" i)) in
  Array.iter (fun id -> Graph.fund_node t id ~amount:10_000) nodes;
  let eids =
    Array.init ring (fun j -> open_exn t ~left:nodes.(j) ~right:nodes.((j + 1) mod ring))
  in
  let channel j = Graph.channel_exn (Graph.edge t eids.(j)) in
  (* Exact sizing: a channel's batch covers its uses plus one, so VCOF
     work happens only here and never during a payment. *)
  let uses = channel_uses ~ops in
  let t0 = Clock.now_ms () in
  Array.iteri (fun j u -> batch_exn (channel j) ~n:(u + 1)) uses;
  let batch_ms_per_state =
    ms_since t0 /. float_of_int (Array.fold_left (fun acc u -> acc + u + 1) 0 uses)
  in
  let total0 = Graph.total_balance t in
  let balances (e : Graph.edge) =
    (Graph.balance_of e ~node_id:e.Graph.e_left, Graph.balance_of e ~node_id:e.Graph.e_right)
  in
  (* Expected (left, right) balances of every channel, by edge id. *)
  let expect = Hashtbl.create ring in
  Array.iter (fun e -> Hashtbl.replace expect e (balances (Graph.edge t e))) eids;
  let endpoints k =
    let a = nodes.(k mod ring) and b = nodes.((k + 3) mod ring) in
    if k mod 2 = 0 then (a, b) else (b, a)
  in
  let verify k path () =
    let src, dst = endpoints k in
    let amts = Router.amounts t ~amount:amounts.(k) path in
    let rec walk at (hops : Router.hop list) amts =
      match (hops, amts) with
      | [], [] -> if at = dst then None else Some "route does not end at the receiver"
      | h :: hops, a :: amts ->
          let e = h.Router.h_edge in
          if h.Router.h_payer <> at then Some "route is not contiguous"
          else begin
            let l, r = Hashtbl.find expect e.Graph.e_id in
            let want = if at = e.Graph.e_left then (l - a, r + a) else (l + a, r - a) in
            Hashtbl.replace expect e.Graph.e_id want;
            if balances e <> want then
              Some (Printf.sprintf "channel %d balances differ from the route" e.Graph.e_id)
            else walk (Graph.peer_of e ~node_id:at) hops amts
          end
      | _ -> Some "route and amounts differ in length"
    in
    if List.length path <> 3 then Some "route is not 3 hops" else walk src path amts
  in
  let msgs = ref 0 in
  let op k =
    let src, dst = endpoints k in
    let amount = amounts.(k) in
    match Trace.span "router.find_path" (fun () -> Router.find_path t ~src ~dst ~amount) with
    | Error e -> failed_step ("no route: " ^ e)
    | Ok path -> (
        match Payment.execute t ~path ~amount () with
        | Error e -> failed_step (Payment.error_to_string e)
        | Ok o when not o.Payment.succeeded -> failed_step "payment did not settle"
        | Ok o ->
            let s = o.Payment.stats in
            msgs := !msgs + s.Payment.messages;
            ok_step ~bytes:s.Payment.bytes (verify k path))
  in
  let finish () =
    if Graph.total_balance t <> total0 then Error "total balance changed"
    else if not (List.for_all batch_intact (List.init ring channel)) then
      Error "a channel used up its batch"
    else
      Ok
        [ ("channel.batch_ms_per_state", batch_ms_per_state);
          ("payment.msgs_per_op", float_of_int !msgs /. float_of_int ops) ]
  in
  { op; finish }

(* --- update_orig / update_durable: alternating payers ---------------- *)

(* Which of [k] channels carries update i: channel j takes one
   consecutive run of updates, lined up with the runner's blocks. *)
let channel_of ~ops ~k i = i * k / ops

(* Update i moves amounts.(i) from A to B when i is even, back when odd. *)
let update_instance ~seed ~ops (chans : Ch.channel array) ~after_op ~finish =
  let k = Array.length chans in
  let rng = Random.State.make [| seed; 2 |] in
  let amounts =
    Array.init ops (fun i ->
        let a = 1 + Random.State.int rng 100 in
        if i mod 2 = 0 then a else -a)
  in
  let bal_a = Array.map (fun c -> c.Ch.a.Ch.my_balance) chans in
  let state = Array.map (fun c -> c.Ch.a.Ch.state) chans in
  let verify i () =
    let j = channel_of ~ops ~k i in
    bal_a.(j) <- bal_a.(j) - amounts.(i);
    state.(j) <- state.(j) + 1;
    after_op ();
    let a = chans.(j).Ch.a and b = chans.(j).Ch.b in
    if a.Ch.my_balance <> bal_a.(j) || b.Ch.their_balance <> bal_a.(j) then
      Some "A's balance differs from the updates applied"
    else if a.Ch.my_balance + b.Ch.my_balance <> 10_000 then Some "channel capacity changed"
    else if a.Ch.state <> state.(j) || b.Ch.state <> state.(j) then
      Some "state number did not advance"
    else None
  in
  let op i =
    match Ch.update chans.(channel_of ~ops ~k i) ~amount_from_a:amounts.(i) with
    | Error e -> failed_step (Ch.error_to_string e)
    | Ok rep -> ok_step ~bytes:rep.Ch.bytes ~rounds:rep.Ch.rounds (verify i)
  in
  { op; finish }

let update_orig_setup ~seed ~ops ~dir:_ =
  let c = two_party_channel (Drbg.of_int seed) in
  update_instance ~seed ~ops [| c |] ~after_op:ignore ~finish:(fun () -> Ok [])

(* Bytes each journal blob gained since the last look: a blob seen for
   the first time counts in full (checkpoints get a new name per
   generation). *)
let disk_growth dir =
  let sizes = Hashtbl.create 8 in
  fun () ->
    Array.fold_left
      (fun acc name ->
        let size = (Unix.stat (Filename.concat dir name)).Unix.st_size in
        let prev = Option.value (Hashtbl.find_opt sizes name) ~default:0 in
        Hashtbl.replace sizes name size;
        acc + max 0 (size - prev))
      0 (Sys.readdir dir)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One journaled channel per block, each batched for exactly its run of
   updates, so every block covers the same channel ages. *)
let update_durable_setup ~seed ~ops ~dir =
  let k = blocks in
  let g = Drbg.of_int seed in
  let runs = Array.make k 0 in
  for i = 0 to ops - 1 do
    let j = channel_of ~ops ~k i in
    runs.(j) <- runs.(j) + 1
  done;
  let chans =
    Array.init k (fun j -> two_party_channel (Drbg.split g (Printf.sprintf "channel%d" j)))
  in
  let t0 = Clock.now_ms () in
  Array.iteri (fun j c -> batch_exn c ~n:(runs.(j) + 1)) chans;
  let batch_ms_per_state = ms_since t0 /. float_of_int (ops + k) in
  let jdir = Filename.concat dir "journal" in
  remove_tree jdir;
  let backend =
    match Backend.dir jdir with Ok b -> b | Error e -> failwith ("journal dir: " ^ e)
  in
  let attach name p =
    Recovery.attach ~backend ~name ~reseed:(Drbg.split g ("reseed/" ^ name)) p
  in
  let hosts =
    Array.mapi
      (fun j c ->
        (attach (Printf.sprintf "alice%d" j) c.Ch.a, attach (Printf.sprintf "bob%d" j) c.Ch.b))
      chans
  in
  let growth = disk_growth jdir in
  ignore (growth ());
  let written = ref 0 in
  let live (c : Ch.channel) =
    List.map
      (fun (p : Ch.party) -> (p.Ch.state, p.Ch.my_balance, p.Ch.their_balance))
      [ c.Ch.a; c.Ch.b ]
  in
  (* Recovery drops the batch (snapshots do not persist it), so the
     batch check comes first. *)
  let recover_ms = ref 0.0 in
  let check j c =
    let before = live c in
    let intact = batch_intact c in
    let ha, hb = hosts.(j) in
    let t0 = Clock.now_ms () in
    let ra = Recovery.recover ha ~env:c.Ch.env in
    let rb = Recovery.recover hb ~env:c.Ch.env in
    recover_ms := !recover_ms +. ms_since t0;
    match (ra, rb) with
    | Error e, _ | _, Error e -> Some ("recover: " ^ Ch.error_to_string e)
    | Ok _, Ok _ when live c <> before -> Some "recovered state differs from the live parties"
    | Ok _, Ok _ when not intact -> Some "a channel used up its batch"
    | Ok _, Ok _ -> None
  in
  let finish () =
    let problems = List.filter_map Fun.id (Array.to_list (Array.mapi check chans)) in
    remove_tree jdir;
    match problems with
    | e :: _ -> Error e
    | [] ->
        Ok
          [ ("channel.batch_ms_per_state", batch_ms_per_state);
            ("store.recover_ms", !recover_ms /. float_of_int k);
            ("store.bytes_per_op", float_of_int !written /. float_of_int ops) ]
  in
  update_instance ~seed ~ops chans
    ~after_op:(fun () -> written := !written + growth ())
    ~finish

(* --- route_scale: routing on a 1024-node scale-free graph ----------- *)

let route_setup ~seed ~ops ~dir:_ =
  let t =
    match
      Topo.build ~balance:5000 ~fee_base:1 ~fee_ppm:100 (Drbg.of_int seed)
        (Topo.Scale_free { nodes = 1024; m = 2 })
    with
    | Ok t -> t
    | Error e -> failwith ("topology: " ^ e)
  in
  let n = Graph.n_nodes t in
  let rng = Random.State.make [| seed; 1 |] in
  let inputs =
    Array.init ops (fun _ ->
        let src = Random.State.int rng n in
        let dst = (src + 1 + Random.State.int rng (n - 1)) mod n in
        (src, dst, 10 + Random.State.int rng 991))
  in
  let state = Router.make_state t in
  let total0 = Graph.total_balance t in
  let verify src dst (path : Router.hop list) () =
    let rec walk at = function
      | [] -> if at = dst then None else Some "route does not end at the receiver"
      | (h : Router.hop) :: rest ->
          if h.Router.h_payer <> at then Some "route is not contiguous"
          else walk (Graph.peer_of h.Router.h_edge ~node_id:at) rest
    in
    walk src path
  in
  let op i =
    let src, dst, amount = inputs.(i) in
    match
      Trace.span "router.find_path" (fun () -> Router.find_path ~state t ~src ~dst ~amount)
    with
    | Error _ -> ok_step (fun () -> None) (* no route is an answer, not a failure *)
    | Ok path ->
        Trace.span "graph.settle" (fun () ->
            List.iter2
              (fun (h : Router.hop) a ->
                Graph.sim_transfer h.Router.h_edge ~payer:h.Router.h_payer ~amount:a)
              path (Router.amounts t ~amount path));
        ok_step (verify src dst path)
  in
  let finish () =
    if Graph.total_balance t <> total0 then Error "total balance changed" else Ok []
  in
  { op; finish }

let all =
  [ { name = "pay3_opt"; ops_per_s = 10; setup_reps = 1; mode = Batched; setup = pay3_setup };
    { name = "update_orig"; ops_per_s = 7; setup_reps = 9; mode = Original;
      setup = update_orig_setup };
    { name = "update_durable"; ops_per_s = 15; setup_reps = 1; mode = Batched;
      setup = update_durable_setup };
    { name = "route_scale"; ops_per_s = 8_000; setup_reps = 9; mode = No_channel;
      setup = route_setup } ]
