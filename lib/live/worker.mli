(** One live worker process: the protocol stack a forked child runs.

    A worker runs the protocol's live implementation from
    {!Optimist_protocols.Registry} on top of the live substrate: {!Loop}
    as the {!Optimist_core.Transport.runtime}, a {!Link} as the
    transport, {!Store} behind the stable hooks, and a per-incarnation
    JSONL trace file. Incarnation [gen = 0] starts fresh; [gen > 0] (a
    supervisor respawn after a SIGKILL) reloads the persisted image and
    runs the protocol's [recover] — the paper's Restart over real stable
    storage. *)

module Traffic = Optimist_workload.Traffic

include module type of struct
  include Optimist_protocols.Registry.Ids
end

type protocol = id
(** The registry's protocol enum, re-exported. *)

val all_protocols : protocol list
(** Every protocol the live runtime can host, [Dg] first
    ({!Optimist_protocols.Registry.live_protocols}). *)

val live_check_rules : protocol -> string list
(** {!Optimist_protocols.Registry.live_check_rules}: the rules a merged
    live trace is linted against. *)

type telemetry =
  | Off  (** null recorder: instrumentation short-circuits *)
  | Ring  (** events into a bounded in-memory ring, nothing on disk *)
  | Full  (** per-incarnation JSONL trace file (the default) *)

val telemetry_name : telemetry -> string

type cfg = {
  dir : string;  (** run directory: sockets, stores, traces *)
  me : int;
  n : int;
  protocol : protocol;
  gen : int;  (** incarnation: 0 on first spawn, +1 per restart *)
  seed : int64;
  base : float;  (** shared [Unix.gettimeofday] origin of the run *)
  duration : float;  (** injection window, seconds *)
  settle : float;  (** extra drain time after the window *)
  rate : float;  (** injections per process per second *)
  hops : int;
  pattern : Traffic.pattern;
  jitter : float * float;  (** Data-lane send-delay range, seconds *)
  faults : Livenet.faults;  (** seeded network-fault plan *)
  telemetry : telemetry;
  link : Link.factory option;
      (** [None] = the classic single-host UDS mesh built from [dir],
          [faults] and [seed]; [Some f] = an alternative fabric (the
          cluster's TCP link) *)
}

val trace_file : dir:string -> me:int -> gen:int -> string
(** The JSONL trace this incarnation writes. *)

val stats_file : dir:string -> me:int -> gen:int -> string
(** The JSON summary (counters, digest, net stats) written on clean
    exit; absent for incarnations that died to a SIGKILL. *)

val store_dir : dir:string -> me:int -> string
(** The worker's stable-storage directory (shared by incarnations). *)

val main : cfg -> unit
(** Run the worker to its deadline and write the stats file. Blocks;
    meant to be the body of a forked child. Exits 1 if the peer sockets
    do not appear; raises [Invalid_argument] for a protocol without a
    live implementation. *)
