(* Per-span-name totals over the traced operations of a run: calls,
   total time, and self time — a span's duration minus the part of it
   its child spans cover. *)

module Trace = Monet_obs.Trace

type agg = { mutable calls : int; mutable total_ms : float; mutable self_ms : float }
type t = (string, agg) Hashtbl.t

let create () : t = Hashtbl.create 64

let rec add (t : t) (sp : Trace.span) =
  let d = Trace.duration_ms sp in
  let children =
    List.fold_left
      (fun acc c ->
        add t c;
        acc +. Trace.duration_ms c)
      0.0 sp.Trace.sp_children
  in
  let a =
    match Hashtbl.find_opt t sp.Trace.sp_name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total_ms = 0.0; self_ms = 0.0 } in
        Hashtbl.replace t sp.Trace.sp_name a;
        a
  in
  a.calls <- a.calls + 1;
  a.total_ms <- a.total_ms +. d;
  a.self_ms <- a.self_ms +. (d -. children)

let find t name = Hashtbl.find_opt t name
let calls t name = match find t name with Some a -> a.calls | None -> 0
let total_ms t name = match find t name with Some a -> a.total_ms | None -> 0.0
let self_ms t name = match find t name with Some a -> a.self_ms | None -> 0.0
