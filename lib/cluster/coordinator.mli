(** Cluster coordinator: drives N agents through one multi-host live
    run over the TCP mesh and merges the result.

    The worker ids are split into contiguous per-agent blocks; each
    agent receives the full endpoint table and SIGKILL schedule, runs
    the ordinary supervision loop over its block against a shared time
    origin, and streams its artifacts back. The coordinator then runs
    the single-host {!Optimist_live.Merge} + report pipeline over the
    collected traces, so a cluster run's output directory is
    indistinguishable from a single-host run's. *)

module Worker = Optimist_live.Worker
module Livenet = Optimist_live.Livenet
module Traffic = Optimist_workload.Traffic
module Scenario = Optimist_soak.Scenario
module Soak = Optimist_soak.Soak

type cfg = {
  cc_out : string;  (** coordinator-side output directory *)
  cc_n : int;
  cc_protocol : Optimist_protocols.Registry.id;
  cc_seed : int64;
  cc_duration : float;
  cc_settle : float;
  cc_rate : float;
  cc_hops : int;
  cc_pattern : Traffic.pattern;
  cc_kills : (float * int) list;  (** cluster-wide SIGKILL schedule *)
  cc_net : Livenet.faults;
  cc_restart_delay : float;
  cc_telemetry : Worker.telemetry;
  cc_lead : float;  (** seconds between Start and the shared base *)
  cc_worker_base : int;  (** worker pid [i] listens on [cc_worker_base + i] *)
}

val default_cfg : cfg

type summary = {
  cs_merged : string;
  cs_chrome : string;
  cs_events : int;
  cs_dropped : int;
  cs_crashes : int;
  cs_clean_exits : int;
  cs_gens : (int * int) list;  (** (pid, final generation) *)
}

val merged_file : string -> string
val chrome_file : string -> string
val run_file : string -> string

val blocks : n:int -> k:int -> int list list
(** Contiguous pid blocks: agent [j] of [k] hosts [n/k] (plus one for
    the first [n mod k] agents) consecutive pids. *)

val run :
  ?log:(string -> unit) ->
  cfg ->
  peers:(string * int) list ->
  (summary, string) result
(** Run one cluster run against already-listening agents at
    [peers = (host, control port) list]. Blocks for the whole run. *)

val run_forked :
  ?log:(string -> unit) ->
  ?port_base:int ->
  agents:int ->
  cfg ->
  (summary, string) result
(** Localhost multi-process mode: fork [agents] in-process agents
    (control ports [port_base + j], scratch dirs [cc_out/agentJ]), run
    against them, reap them. *)

val scenario_runner :
  ?agents:int ->
  ?port_base:int ->
  ?worker_base:int ->
  unit ->
  dir:string ->
  Scenario.t ->
  (Soak.run_result, string) result
(** A {!Soak.run_campaign} [?runner] that executes each scenario as a
    forked-localhost TCP cluster ([min agents sc_n] agents) and judges
    it with the shared soak assessor. *)
