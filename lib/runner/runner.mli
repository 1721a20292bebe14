(** Experiment runner: one entry point that executes the same workload and
    fault schedule under any of the implemented recovery protocols and
    returns normalized metrics. The bench harness builds every table of
    EXPERIMENTS.md out of these reports. *)

module Network = Optimist_net.Network
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
  protocol : Optimist_protocols.Registry.id;
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
      (** attach the ground-truth oracle (Damani-garg variants only) *)
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

val pp_report : Format.formatter -> report -> unit
