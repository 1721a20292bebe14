(** One live run, stated once: process count, traffic shape, SIGKILL
    schedule, network-fault plan and telemetry.

    Every live harness takes this value: {!Supervisor.run} (single host,
    UDS), the cluster coordinator and its agents (TCP), and the soak
    campaign over either. It replaces the per-harness configuration
    records that used to restate these fields. Where the run happens —
    a run directory, a fabric, ports — is not part of the plan. *)

module Traffic = Optimist_workload.Traffic

type telemetry =
  | Off  (** null recorder: instrumentation short-circuits *)
  | Ring  (** events into a bounded in-memory ring, nothing on disk *)
  | Full  (** per-incarnation JSONL trace file (the default) *)

val telemetry_name : telemetry -> string

type t = {
  protocol : Optimist_protocols.Registry.id;
  n : int;
  seed : int64;
  duration : float;  (** injection window, seconds *)
  settle : float;  (** drain time after the window, seconds *)
  rate : float;  (** injections per process per second *)
  hops : int;
  pattern : Traffic.pattern;
  kills : (float * int) list;  (** (seconds into the run, pid) SIGKILLs *)
  net_faults : Link.faults;  (** seeded drops, dups and burst partitions *)
  restart_delay : float;  (** crash-to-respawn delay, seconds *)
  telemetry : telemetry;
}

val default : t
(** 4 workers, Damani-Garg, 3 s of traffic at 8 msg/s/process + 2 s
    settle, no faults, full telemetry. *)

val validate : t -> (unit, string) result
(** A one-line error on nonsense parameters: a protocol without a live
    implementation, n < 2, non-positive duration, rate or restart delay,
    negative settle, a kill pid or time out of range, drop/dup rates
    outside [0, 1), a partition with an empty island, an island pid out
    of range, or an empty or negative window. *)

val json_fields : t -> (string * Optimist_obs.Json.t) list
(** The plan half of a run's [run.json], in its key order: [protocol],
    [telemetry], [n], [seed], [duration], [settle], [rate], [hops],
    [faults], [drop_rate], [dup_rate], [partitions]. *)
