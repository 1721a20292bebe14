(** Coordinator/agent control protocol: length-prefixed marshalled
    messages over one blocking TCP connection per agent.

    The exchange is strictly request/response, driven by the
    coordinator: [Hello]/[Welcome] (version handshake), [Plan]/[Ok_]
    (ship the run plan), [Start]/[Done_] (run the supervision loop to
    completion — the one long-blocking step), [Fetch]/[File...Fetched]
    (stream back run artifacts), [Bye]/[Ok_]. Both ends must be the
    same build of the recsim binary (Marshal on the wire); [Welcome]
    carries {!version} to catch mismatches, between the control messages
    or the workers' {!Tcplink} frames. *)

module Worker = Optimist_live.Worker
module Link = Optimist_live.Link
module Traffic = Optimist_workload.Traffic

val version : int

type agent_cfg = {
  ag_run : string;  (** run id, for agent-side logging *)
  ag_n : int;  (** total workers across the cluster *)
  ag_workers : int list;  (** the pids this agent hosts *)
  ag_endpoints : (string * int) array;  (** worker pid -> host, data port *)
  ag_protocol : Optimist_protocols.Registry.id;
  ag_seed : int64;
  ag_duration : float;
  ag_settle : float;
  ag_rate : float;
  ag_hops : int;
  ag_pattern : Traffic.pattern;
  ag_kills : (float * int) list;
      (** the full cluster-wide SIGKILL schedule; the agent filters it
          down to the pids it hosts — this is how the coordinator
          schedules kills remotely *)
  ag_net : Link.faults;
  ag_restart_delay : float;
  ag_telemetry : Worker.telemetry;
}

type request =
  | Hello
  | Plan of agent_cfg
  | Start of { base : float }
      (** absolute [Unix.gettimeofday] run origin, chosen slightly in
          the future so all agents' workers share one timeline
          (multi-host use assumes synchronized clocks) *)
  | Fetch
  | Bye

type response =
  | Welcome of { version : int }
  | Ok_
  | Done_ of { crashes : int; clean_exits : int; gens : (int * int) list }
  | File of { path : string; data : string }
      (** one run artifact, path relative to the agent's run directory *)
  | Fetched
  | Error_ of string

val send_request : Unix.file_descr -> request -> unit
val recv_request : Unix.file_descr -> request
val send_response : Unix.file_descr -> response -> unit
val recv_response : Unix.file_descr -> response
