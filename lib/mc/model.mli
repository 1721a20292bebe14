(** Model-checking configurations: small protocol instances rebuilt
    from scratch for every explored schedule. *)

module Engine = Optimist_sim.Engine
module Trace = Optimist_obs.Trace
module Registry = Optimist_protocols.Registry

type cfg = {
  protocol : Registry.id;
  n : int;  (** processes, ids [0, n) *)
  msgs : int;  (** app messages injected at t=0, round-robin over pids *)
  hops : int;  (** forwarding hops per injected message *)
  crashes : int;  (** crash-injection budget for the explorer *)
  mutation : string;  (** [""] for the unmodified protocol *)
}

val default_cfg : cfg
(** Damani-Garg, 3 processes, 2 messages x 2 hops, 1 crash. *)

type mutant = {
  mu_name : string;
  mu_protocol : Registry.id;
  mu_rule : string;  (** the sanitizer rule the mutant must trip *)
  mu_doc : string;
}

val mutants : mutant list
(** The shipped deliberately-broken variants; each is catchable by the
    offline linter, so replayed counterexample traces fail
    [recsim check --strict]. *)

val find_mutant : string -> mutant option

val validate : cfg -> unit
(** Raises [Invalid_argument] on out-of-range sizes, unknown mutations,
    or a mutation applied to the wrong protocol. *)

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
(** Construct a fresh instance: engine, network, processes, monitor
    (and, for Damani-Garg, the ground-truth oracle), with all traffic
    injected at t=0. [sink] additionally receives the execution's trace
    events (used by counterexample replay). *)
