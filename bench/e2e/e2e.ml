(* End-to-end benchmark of the MoNet stack (see README.md).

     e2e.exe --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]

   One client runs a closed loop, in one process and one domain: each
   operation starts when the previous one has returned. A run sets its
   workload up (timed, [setup_reps] times, median reported), runs the
   workload's op budget, checks every output, and prints each metric by
   name and unit; its last stdout line is one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones, measured with the Monet_obs registry and tracer
   off. With --trace 1 every odd operation runs traced (registry on, a
   fresh trace sink per operation) and every even one untraced, and the
   metrics are the per-layer ones; the traces are written, one
   monet-trace/1 document per line, under .bench_build/e2e/. --smoke
   runs every workload traced with a handful of operations and prints
   nothing unless a check or an operation fails. The exit code is 0 iff
   every check passed. *)

module Metrics = Monet_obs.Metrics
module Trace = Monet_obs.Trace
module W = Workloads

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed checks, oldest first *)
  end_to_end : metric list;
  per_layer : metric list;
}

(* [W.blocks] blocks of at least 20 operations each; see [per_block]. *)
let min_ops = 100
let smoke_ops = 4
let work_dir = Filename.concat ".bench_build" "e2e"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let div a b = if b = 0.0 then 0.0 else a /. b

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let sum = Array.fold_left ( +. ) 0.0
let median a = percentile (sorted a) 0.5

(* A shared machine slows down in bursts of up to a second or more,
   and noise only ever adds time. So the untraced operations are cut,
   in run order, into [W.blocks] consecutive blocks, each latency
   metric is computed within every block, and the best block's value is
   reported: the figure closest to an undisturbed machine. *)
let per_block lat f =
  let n = Array.length lat in
  let k = max 1 (min W.blocks n) in
  Array.init k (fun b -> f (Array.sub lat (b * n / k) (((b + 1) * n / k) - (b * n / k))))

let lowest = Array.fold_left Float.min Float.infinity
let highest = Array.fold_left Float.max Float.neg_infinity

(* Wall time of one call of [f] on two field elements, in ns: the
   median of five timed loops, with the registry off. *)
let fe_unit_ns ~reps f =
  let g = Monet_hash.Drbg.of_int 0xfe in
  let a = Monet_ec.Fe.random g and b = Monet_ec.Fe.random g in
  let loop () =
    let t0 = Clock.now_ms () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f a b))
    done;
    (Clock.now_ms () -. t0) *. 1e6 /. float_of_int reps
  in
  median (Array.init 5 (fun _ -> loop ()))

(* What the operation loop accumulates. Untraced latencies are kept in
   run order; GC and CPU figures cover untraced operations of a traced
   run; bytes and rounds cover every successful operation. *)
type tally = {
  mutable lat_u : float list;  (** untraced latencies, newest first *)
  mutable lat_t : float list;  (** traced latencies *)
  spans : Spans.t;
  mutable minor : float;
  mutable major : float;
  mutable major_gcs : int;
  mutable cpu_s : float;
  mutable failed : int;
  mutable bytes : int;
  mutable rounds : int;
}

let run_ops ~trace ~trace_out ~problem (w : W.t) (inst : W.instance) ~ops =
  let t =
    { lat_u = []; lat_t = []; spans = Spans.create (); minor = 0.0; major = 0.0;
      major_gcs = 0; cpu_s = 0.0; failed = 0; bytes = 0; rounds = 0 }
  in
  for i = 0 to ops - 1 do
    let traced = trace && i mod 2 = 1 in
    let reg0 = if trace then Metrics.total_count () else 0 in
    if traced then begin
      Metrics.enable ();
      Trace.enable ~capacity:64 ()
    end;
    let gc0 = Gc.quick_stat () and cpu0 = Sys.time () in
    let t0 = Clock.now_ms () in
    let step =
      try Trace.span "e2e.op" (fun () -> inst.W.op i)
      with e -> W.failed_step (Printexc.to_string e)
    in
    let dt = Clock.now_ms () -. t0 in
    if traced then begin
      Trace.disable ();
      Metrics.disable ();
      List.iter (Spans.add t.spans) (Trace.roots ());
      let doc = Trace.to_json () in
      (match Trace.validate_json doc with
      | Ok () -> ()
      | Error e -> problem (Printf.sprintf "trace of op %d is invalid: %s" i e));
      Option.iter
        (fun oc ->
          output_string oc doc;
          output_char oc '\n')
        trace_out;
      t.lat_t <- dt :: t.lat_t
    end
    else begin
      if trace then begin
        let gc1 = Gc.quick_stat () in
        t.cpu_s <- t.cpu_s +. (Sys.time () -. cpu0);
        t.minor <- t.minor +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
        t.major <- t.major +. (gc1.Gc.major_words -. gc0.Gc.major_words);
        t.major_gcs <- t.major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections);
        if Metrics.total_count () <> reg0 then
          problem (Printf.sprintf "the registry counted during untraced op %d" i)
      end;
      t.lat_u <- dt :: t.lat_u
    end;
    match step.W.error with
    | Some e ->
        t.failed <- t.failed + 1;
        Printf.eprintf "%s op %d failed: %s\n%!" w.W.name i e
    | None -> (
        t.bytes <- t.bytes + step.W.bytes;
        t.rounds <- t.rounds + step.W.rounds;
        match step.W.verify () with
        | Some e -> problem (Printf.sprintf "op %d: %s" i e)
        | None -> ())
  done;
  t

let m name unit_ value = { name; unit_; value }

(* From the untraced operations; latencies from the best block (see
   [per_block]). *)
let end_to_end_of ~setup_ms (t : tally) =
  let lat = Array.of_list (List.rev t.lat_u) in
  let throughput b = div (float_of_int (Array.length b)) (sum b /. 1000.0) in
  [ m "setup_s" "s" (setup_ms /. 1000.0);
    m "ops_per_s" "1/s" (highest (per_block lat throughput));
    m "op_p50_ms" "ms" (lowest (per_block lat median));
    m "op_p90_ms" "ms" (lowest (per_block lat (fun b -> percentile (sorted b) 0.9)));
    m "heap_peak_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0) ]

(* Span times and registry counts per traced operation, GC and CPU per
   untraced one; [extra] holds the workload's own figures. *)
let per_layer_of ~smoke ~trace ~ops ~extra (t : tally) =
  let n_u = float_of_int (List.length t.lat_u) and busy_u = List.fold_left ( +. ) 0.0 t.lat_u in
  let n_t = float_of_int (List.length t.lat_t) and busy_t = List.fold_left ( +. ) 0.0 t.lat_t in
  let counters = Metrics.snapshot () in
  let count name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
  let per_op x = div x n_t in
  let per_all_ops x = div (float_of_int x) (float_of_int ops) in
  let span_per_op name = per_op (Spans.total_ms t.spans name) in
  let span_per_call name =
    div (Spans.total_ms t.spans name) (float_of_int (Spans.calls t.spans name))
  in
  let self_per_op names =
    per_op (List.fold_left (fun acc s -> acc +. Spans.self_ms t.spans s) 0.0 names)
  in
  let own name = Option.value (List.assoc_opt name extra) ~default:0.0 in
  let fe_reps = if smoke then 1_000 else 200_000 in
  let fe_mul_ns = if trace then fe_unit_ns ~reps:fe_reps Monet_ec.Fe.mul else 0.0 in
  let fe_sq_ns = if trace then fe_unit_ns ~reps:fe_reps (fun a _ -> Monet_ec.Fe.sq a) else 0.0 in
  let op_ms = div busy_u n_u in
  let ec_ms = per_op ((count "ec.fe_mul" *. fe_mul_ns) +. (count "ec.fe_sq" *. fe_sq_ns)) /. 1e6 in
  let driver label = m ("driver." ^ label ^ ".ms_per_op") "ms" (span_per_op ("driver." ^ label)) in
  [ m "router.find_path_ms_per_op" "ms" (span_per_op "router.find_path");
    m "router.settled_per_op" "count" (per_op (count "net.route.settled"));
    m "router.relaxed_per_op" "count" (per_op (count "net.route.relaxed"));
    m "router.no_route_per_op" "count" (per_op (count "net.route.no_route"));
    m "graph.settle_ms_per_op" "ms" (span_per_op "graph.settle");
    m "payment.execute_ms_per_op" "ms" (span_per_op "payment.execute");
    m "payment.lock_ms_per_hop" "ms" (span_per_call "payment.lock");
    m "payment.unlock_ms_per_hop" "ms" (span_per_call "payment.unlock");
    m "payment.msgs_per_op" "count" (own "payment.msgs_per_op");
    m "amhl.setup_ms_per_op" "ms" (span_per_op "payment.setup");
    m "amhl.peel_verify_ms_per_op" "ms" (self_per_op [ "payment.execute" ]);
    m "channel.update_ms_per_op" "ms" (span_per_op "channel.update");
    m "channel.lock_ms_per_hop" "ms" (span_per_call "channel.lock");
    m "channel.unlock_ms_per_hop" "ms" (span_per_call "channel.unlock");
    m "channel.starter_self_ms_per_op" "ms"
      (self_per_op [ "channel.update"; "channel.lock"; "channel.unlock" ]);
    m "channel.rounds_per_op" "count" (per_all_ops t.rounds);
    m "channel.batch_ms_per_state" "ms" (own "channel.batch_ms_per_state");
    driver "stmt-announce";
    driver "commit-nonce";
    driver "z-share";
    driver "kes-sig";
    driver "lock-open";
    m "sig.lsag_steps_per_op" "count" (per_op (count "sig.lsag_step"));
    m "ec.fe_mul_per_op" "count" (per_op (count "ec.fe_mul"));
    m "ec.fe_sq_per_op" "count" (per_op (count "ec.fe_sq"));
    m "ec.point_mul_per_op" "count" (per_op (count "ec.point_mul"));
    m "ec.point_mul_base_per_op" "count" (per_op (count "ec.point_mul_base"));
    m "ec.point_double_mul_per_op" "count" (per_op (count "ec.point_double_mul"));
    m "ec.point_mul2_per_op" "count" (per_op (count "ec.point_mul2"));
    m "ec.msm_terms_per_op" "count" (per_op (count "ec.point_msm_terms"));
    m "journal.records_per_op" "count" (per_op (count "journal.records"));
    m "journal.checkpoints_per_op" "count" (per_op (count "journal.checkpoints"));
    m "store.bytes_per_op" "B" (own "store.bytes_per_op");
    m "store.recover_ms" "ms" (own "store.recover_ms");
    m "wire.bytes_per_op" "B" (per_all_ops t.bytes);
    m "gc.minor_words_per_op" "words" (div t.minor n_u);
    m "gc.major_words_per_op" "words" (div t.major n_u);
    m "gc.major_collections" "count" (float_of_int t.major_gcs);
    m "run.cpu_ms_per_op" "ms" (div (t.cpu_s *. 1000.0) n_u);
    m "trace.overhead" "ratio" (div (div n_t busy_t) (div n_u busy_u));
    m "ec.fe_mul_ns" "ns" fe_mul_ns;
    m "ec.fe_sq_ns" "ns" fe_sq_ns;
    m "model.ec_share" "ratio" (div ec_ms op_ms);
    m "model.unexplained_ms_per_op" "ms" (if trace then op_ms -. ec_ms else 0.0) ]

let run ~smoke ~trace ~seed ~seconds (w : W.t) : outcome =
  Metrics.disable ();
  Metrics.reset ();
  Trace.disable ();
  Trace.clear ();
  Trace.set_clock Clock.now_ms;
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let ops = if smoke then smoke_ops else max min_ops (seconds * w.W.ops_per_s) in
  mkdir_p work_dir;
  Monet_ec.Point.force_precomp ();
  let inst = ref None in
  let setup_ms =
    median
      (Array.init w.W.setup_reps (fun _ ->
           let t0 = Clock.now_ms () in
           inst := Some (w.W.setup ~seed ~ops ~dir:work_dir);
           Clock.now_ms () -. t0))
  in
  let inst = Option.get !inst in
  let trace_out =
    if trace && not smoke then
      Some (open_out (Filename.concat work_dir (w.W.name ^ ".trace.jsonl")))
    else None
  in
  let t = run_ops ~trace ~trace_out ~problem w inst ~ops in
  Option.iter close_out trace_out;
  let extra = match inst.W.finish () with Ok m -> m | Error e -> problem e; [] in
  if (not trace) && Metrics.total_count () <> 0 then problem "the registry counted during the run";
  let stmt_announces = Spans.calls t.spans "driver.stmt-announce" in
  (match w.W.mode with
  | W.Batched when trace && stmt_announces > 0 ->
      problem (Printf.sprintf "%d statement announcements in batched mode" stmt_announces)
  | W.Original when trace && stmt_announces = 0 ->
      problem "no statement announcement in original mode"
  | _ -> ());
  { attempted = ops; failed = t.failed; problems = List.rev !problems;
    end_to_end = end_to_end_of ~setup_ms t;
    per_layer = per_layer_of ~smoke ~trace ~ops ~extra t }

let json_of (o : outcome) metrics =
  let metric mt = (mt.name, Json.Obj [ ("value", Json.Num mt.value); ("unit", Json.Str mt.unit_) ]) in
  Json.Obj
    [ ("correct", Json.Bool (o.problems = []));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", Json.Obj (List.map metric metrics)) ]

let render ~trace ~seed (w : W.t) (o : outcome) =
  let b = Buffer.create 4096 in
  let metrics = if trace then o.per_layer else o.end_to_end in
  Printf.bprintf b "# workload %s, seed %d, %d ops (%d failed), %s, monotonic wall clock\n"
    w.W.name seed o.attempted o.failed
    (if trace then "odd ops traced" else "untraced");
  List.iter (fun mt -> Printf.bprintf b "%-32s %14.6f %s\n" mt.name mt.value mt.unit_) metrics;
  List.iter (fun p -> Printf.bprintf b "CHECK FAILED: %s\n" p) o.problems;
  Buffer.add_string b (Json.to_string (json_of o metrics));
  Buffer.add_char b '\n';
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  let usage = "e2e.exe --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length; sets the op budget (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--smoke", Arg.Set smoke, " every workload, a few traced ops, silent unless one fails") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen =
    if !smoke || !workload = "all" then Some W.all
    else Option.map (fun w -> [ w ]) (List.find_opt (fun w -> w.W.name = !workload) W.all)
  in
  match chosen with
  | None ->
      prerr_endline usage;
      exit 2
  | Some _ when (!trace <> 0 && !trace <> 1) || !seconds < 1 ->
      prerr_endline usage;
      exit 2
  | Some ws ->
      let trace = !smoke || !trace = 1 in
      let results =
        List.map
          (fun w ->
            let o = run ~smoke:!smoke ~trace ~seed:!seed ~seconds:!seconds w in
            let text = render ~trace ~seed:!seed w o in
            if !smoke then begin
              (* The smoke prints nothing on success, but both metric
                 sets must render. *)
              ignore (render ~trace:false ~seed:!seed w o);
              if o.problems <> [] || o.failed > 0 then prerr_string text
            end
            else print_string text;
            o)
          ws
      in
      (* A failed operation is reported in [failed]; only a failed
         check fails a run, except in the smoke, where both do. *)
      let ok o = o.problems = [] && ((not !smoke) || o.failed = 0) in
      exit (if List.for_all ok results then 0 else 1)
