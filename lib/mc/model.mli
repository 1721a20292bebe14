(** Model-checking configurations: small protocol instances rebuilt
    from scratch for every explored schedule. *)

module Engine = Optimist_sim.Engine
module Trace = Optimist_obs.Trace
module Registry = Optimist_protocols.Registry

type cfg = {
  protocol : Registry.id;  (** a protocol or one of its variants *)
  n : int;  (** processes, ids [0, n) *)
  msgs : int;  (** app messages injected at t=0, round-robin over pids *)
  hops : int;  (** forwarding hops per injected message *)
  crashes : int;  (** crash-injection budget for the explorer *)
}

val default_cfg : cfg
(** Damani-Garg, 3 processes, 2 messages x 2 hops, 1 crash. *)

val validate : cfg -> (unit, string) result
(** A one-line error for out-of-range sizes; {!build} raises it as
    [Invalid_argument]. *)

type instance = {
  i_engine : Engine.t;
  i_alive : int -> bool;
  i_crash : int -> unit;
  i_digest : unit -> int;  (** observable-state hash, for fingerprinting *)
  i_finish : unit -> string list;
      (** end-of-execution verdict: sanitizer + oracle violations as
          stable strings (no timestamps, so violation sets compare
          across interleavings). Valid only at quiescence. *)
}

val build : ?sink:Trace.sink -> cfg -> instance
(** Construct a fresh instance through {!Optimist_runner.Runner.build}
    with the registry entry's [mc] face: engine, network, processes,
    monitor (and, for a protocol that reports ground truth, the oracle),
    with all traffic injected at t=0. [sink] additionally receives the
    execution's trace events (used by counterexample replay). *)
