(** Multi-hop payments over MoNet (paper Fig. 5): Setup → Lock →
    Unlock, with AMHL suffix-sum locks, onion-delivered hop packets,
    cascade timers (τ decreasing toward the receiver) and cancellation
    / dispute escalation on failure. One engine, {!execute}, runs both
    the fault-free cascade and every recovery path.

    Each phase's computation is measured (CPU time) and its message
    legs counted, so the latency experiments can combine measured
    compute with modelled network latency exactly as the paper does. *)

(** Payment-layer failures, fully typed so fault-path tests can
    pattern-match on the {e kind} of failure (and the hop it happened
    at) instead of string-comparing. Channel failures keep their typed
    cause with the hop context that produced them; strings appear only
    at the CLI/bench boundary via {!error_to_string}. *)
type error =
  | Channel of string * Monet_channel.Channel.error
      (** context (e.g. ["lock hop 2"]) and the channel's cause *)
  | No_route of string  (** the router found no (disjoint) path *)
  | Onion of string  (** onion wrap/peel failure *)
  | Packet_rejected of int  (** this hop (1-based) rejected its AMHL packet *)
  | Cancelled  (** a multipath part was cancelled by the receiver *)

(** Human-readable rendering, for the CLI and bench boundary. *)
val error_to_string : error -> string

(** Per-phase cost of one payment: CPU milliseconds per phase (lock
    and unlock summed across hops) and the message legs and bytes it
    put on the wire, onion forwarding included. *)
type phase_stats = {
  mutable setup_ms : float;
  mutable lock_ms : float;
  mutable unlock_ms : float;
  mutable n_hops : int;
  mutable messages : int;
  mutable bytes : int;
  mutable onion_bytes : int;  (** size of one (fixed-size) onion layer *)
}

(** How each hop of a payment ended up. *)
type hop_fate =
  | Hop_pending  (** never locked (failure hit an earlier hop first) *)
  | Hop_unlocked  (** paid off-chain, channel stays open *)
  | Hop_cancelled  (** cancelled cooperatively, channel stays open *)
  | Hop_disputed of Monet_channel.Channel.payout
      (** force-closed through the KES *)
  | Hop_punished of Monet_channel.Channel.payout
      (** the watchtower caught a stale broadcast and settled with
          priority *)

(** The result of a payment that ran to a resolution. *)
type outcome = {
  stats : phase_stats;
  path : Router.hop list;
  succeeded : bool;
      (** the receiver was paid (off- or on-chain); on a fault-free
          run, exactly "every hop unlocked" *)
  fates : hop_fate array;  (** one per hop, in path order *)
  disputes : int;  (** hops force-closed through the KES *)
  punishments : int;  (** hops settled by the watchtower *)
  timeouts : int;  (** channel sessions that hit their deadline *)
}

(** [execute t ~path ~amount ()] pays [amount] along [path]. Each hop
    locks its own fee-adjusted amount ({!Router.amounts}): the receiver
    nets [amount] and every intermediary keeps its forwarding fee when
    the cascade settles. Hop i's timer is
    τ_i = [base_timer] + (n − i)·[timer_delta], so earlier hops outlive
    later ones.

    [receiver_cooperates] = false models a receiver that takes the
    locks but never reveals the final witness: every hop then waits
    out its timer and cancels (unlockability). [on_locked i] runs
    after hop [i] (0-based) locks — the hook fault scenarios use to
    misbehave at a precise protocol point.

    Faults never escape as hard errors: when a hop's channel session
    times out (its counterparty stayed silent past the driver
    deadline — see {!Monet_channel.Driver}), the engine waits out the
    hop's τ (advancing [clock], if given), gives the watchtower
    [tower] a tick (the silent party may have broadcast a stale
    commitment — punished with priority), and otherwise forces the
    stuck channel through the KES dispute path. Hops upstream of a
    lock-phase failure cancel cooperatively, escalating the same way
    if their counterparty is silent too. A hop that goes dark
    mid-unlock is settled {e at the locked state} with the witness
    the payee already holds, so the cascade continues upstream and
    every honest intermediary stays made whole. Channel errors other
    than timeouts surface as [Error]: they indicate protocol
    violations, not silence. *)
val execute :
  Graph.t ->
  path:Router.hop list ->
  amount:int ->
  ?receiver_cooperates:bool ->
  ?tower:Monet_channel.Watchtower.t ->
  ?clock:Monet_dsim.Clock.t ->
  ?on_locked:(int -> unit) ->
  ?base_timer:int ->
  ?timer_delta:int ->
  unit ->
  (outcome, error) result

(** Route and pay in one step. *)
val pay :
  Graph.t ->
  src:int ->
  dst:int ->
  amount:int ->
  ?receiver_cooperates:bool ->
  unit ->
  (outcome, error) result

(** Multi-path payment: split [amount] greedily over capacity-disjoint
    routes (each part bounded by its bottleneck, fees included). Parts
    are individual AMHL payments; the split is all-or-nothing per part
    but not across parts (full AMP atomicity would share the
    receiver's witness across parts — noted as future work). Returns
    the per-part (path, amount) breakdown. *)
val pay_multipath :
  Graph.t ->
  src:int ->
  dst:int ->
  amount:int ->
  ?max_parts:int ->
  unit ->
  ((Router.hop list * int) list, error) result

(** End-to-end latency under the paper's accounting: per hop, one
    network latency plus the measured per-hop computation. *)
val latency_ms : outcome -> network_ms:float -> float

(** Pessimistic accounting: every sequential message leg pays
    latency. *)
val latency_full_rounds_ms : outcome -> network_ms:float -> float
