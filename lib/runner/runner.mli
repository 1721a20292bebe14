(** Experiment runner: one entry point that executes the same workload and
    fault schedule under any of the implemented recovery protocols and
    returns normalized metrics. The bench harness builds every table of
    EXPERIMENTS.md out of these reports. {!build}, the one simulation
    builder, also serves the model checker ([Mc.Model]). *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Oracle = Optimist_oracle.Oracle
module Registry = Optimist_protocols.Registry
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Check = Optimist_check.Check
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic

type check_mode =
  | No_check
  | Check  (** run the online sanitizer; violations land in [r_check] *)
  | Check_strict
      (** same monitoring — the mode only signals to callers (the CLI)
          that warnings should also fail the run *)

type params = {
  protocol : Registry.id;
  n : int;
  seed : int64;
  pattern : Traffic.pattern;
  rate : float;  (** environment injections per process per time unit *)
  duration : float;  (** injection window; the run then drains *)
  hops : int;  (** forwarding chain length per injection *)
  faults : Schedule.fault list;
  ordering : Network.ordering;
  drop : float;  (** Data-message loss probability, in [0, 1] *)
  dup : float;  (** Data-message duplication probability, in [0, 1] *)
  with_oracle : bool;
      (** attach the ground-truth oracle; {!run} raises [Invalid_argument]
          for a protocol that reports no ground truth
          ({!Registry.ground_truth}) *)
  trace : Trace.t;
      (** structured-trace recorder installed on the engine; defaults to
          {!Trace.null} (no events, one boolean check per site) *)
  check : check_mode;
      (** attach the online sanitizer as a trace sink (forcing a live
          recorder if [trace] is {!Trace.null}); defaults to
          [No_check] *)
}

val default_params : params

type report = {
  r_protocol : string;
  r_params : params;
  r_counters : (string * int) list;  (** summed over processes *)
  r_net : (string * int) list;
  r_digests : int list;  (** final application digests, per process *)
  r_events : int;  (** simulation events executed *)
  r_virtual_end : float;  (** virtual time at quiescence *)
  r_oracle_stats : (int * int * int) option;  (** live, lost, discarded *)
  r_violations : string list;  (** oracle check failures (empty = clean) *)
  r_check : Check.violation list;
      (** online-sanitizer violations, including the oracle cross-check
          when both the sanitizer and the oracle ran (empty = clean or
          checking off); also counted by the [check.violations] metric *)
  r_registry : Metrics.registry;
      (** per-process metric scopes, labelled [(protocol, pid)] *)
}

val counter : report -> string -> int
(** 0 when absent. *)

val run : params -> report

(** {2 The simulation builder} *)

type sim = {
  engine : Engine.t;
  registry : Metrics.registry;  (** per-process scopes, as [r_registry] *)
  oracle : Oracle.t option;
  alive : int -> bool;
  crash : int -> unit;  (** crash the process now *)
  digest : int -> int;  (** the process's application digest *)
  incarnation : int -> int option;
  counters : unit -> (string * int) list;  (** summed over processes *)
  net_stats : unit -> (string * int) list;
  verdict : unit -> Check.violation list * string list;
      (** once, at quiescence: as [r_check] and [r_violations] *)
}
(** One protocol instance on the simulator, not yet run. *)

val build :
  ?sim:(module Optimist_core.Protocol.SIM) ->
  protocol:Registry.id ->
  seed:int64 ->
  net:Network.config ->
  pattern:Traffic.pattern ->
  trace:Trace.t ->
  check:bool ->
  oracle:bool ->
  Schedule.t ->
  sim
(** The engine over [trace], the network, [net.n] processes of
    [protocol] ([sim] replaces the registry's module) and every event of
    the schedule, partitions included. [check] attaches the sanitizer as
    {!run} does; [oracle] the oracle, as [with_oracle]. *)

val setup : params -> sim
(** What {!run} runs, before it runs: {!build} over the network, the
    Poisson injections and the faults [params] describe. *)

val pp_report : Format.formatter -> report -> unit
