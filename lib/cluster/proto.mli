(** Coordinator/agent control protocol: length-prefixed marshalled
    messages over one blocking TCP connection per agent.

    The exchange is strictly request/response, driven by the
    coordinator: [Hello]/[Welcome] (version handshake), [Plan]/[Ok_]
    (ship the run: the {!Optimist_live.Plan.t} every agent shares, plus
    the agent's pid block and the endpoint table), [Start]/[Done_] (run
    the supervision loop to completion — the one long-blocking step),
    [Fetch]/[File...Fetched] (stream back run artifacts), [Bye]/[Ok_].
    Both ends must be the same build of the recsim binary (Marshal on the
    wire); [Welcome] carries {!version} (4 since the plan became a
    [Plan.t]) to catch mismatches, between the control messages or the
    workers' {!Tcplink} frames. *)

val version : int

type agent_cfg = {
  run_id : string;  (** for agent-side logging *)
  workers : int list;  (** the pids this agent hosts *)
  endpoints : (string * int) array;  (** worker pid -> host, data port *)
  plan : Optimist_live.Plan.t;
      (** the whole run; its kill schedule is cluster-wide and the agent
          filters it down to the pids it hosts *)
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
