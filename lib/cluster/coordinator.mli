(** Cluster coordinator: drives N agents through one multi-host live
    run over the TCP mesh and merges the result.

    The worker ids are split into contiguous per-agent blocks; each
    agent receives the full endpoint table and SIGKILL schedule, runs
    the ordinary supervision loop over its block against a shared time
    origin, and streams its artifacts back. The coordinator then runs
    the single-host {!Optimist_live.Merge} + report pipeline over the
    collected traces, so a cluster run's output directory is
    indistinguishable from a single-host run's. *)

val blocks : n:int -> k:int -> int list list
(** Contiguous pid blocks: agent [j] of [k] hosts [n/k] (plus one for
    the first [n mod k] agents) consecutive pids. *)

val run :
  ?log:(string -> unit) ->
  ?lead:float ->
  out:string ->
  worker_base:int ->
  peers:(string * int) list ->
  Optimist_live.Plan.t ->
  (Optimist_live.Supervisor.result, string) result
(** Run [plan] against already-listening agents at [peers = (host,
    control port) list]; worker pid [i] listens on [worker_base + i], and
    the shared start instant lies [lead] seconds (default 0.5) after the
    plan is delivered. Fetched artifacts, the merged traces and
    [run.json] land in [out]. A one-line [Error], before any agent is
    dialed, when the plan fails {!Optimist_live.Plan.validate}, there are
    no agents or more agents than workers, or the worker ports run past
    65535. Blocks for the whole run. *)

val run_forked :
  ?log:(string -> unit) ->
  ?lead:float ->
  out:string ->
  worker_base:int ->
  port_base:int ->
  agents:int ->
  Optimist_live.Plan.t ->
  (Optimist_live.Supervisor.result, string) result
(** Localhost multi-process mode: fork [agents] in-process agents
    (control ports [port_base + j], scratch dirs [out/agentJ]), {!run}
    against them, reap them. Also refuses, before forking, control ports
    that run past 65535. *)
