(* The one clock every timing of the benchmark reads: monotonic wall
   time, in milliseconds. CPU time appears only in run.cpu_ms_per_op,
   which reads Sys.time directly and says so in its name. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6
