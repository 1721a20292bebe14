(** Orchestrates one live run: fork the workers, SIGKILL per the fault
    schedule, respawn from stable storage, reap, merge the traces.

    The supervisor is the only process with a global view. Failures are
    real: a scheduled fault delivers SIGKILL to the worker's OS process,
    losing whatever the protocol had not pushed to its {!Store}; after
    [restart_delay] the supervisor forks the next incarnation of the
    same worker ([gen + 1]), which reloads the store and runs the
    protocol's recovery. When the run deadline passes, surviving workers
    exit on their own, traces are merged ({!Merge}) and a [run.json]
    summary is written to the run directory. *)

module Traffic = Optimist_workload.Traffic

type cfg = {
  dir : string;  (** run directory (created; previous artifacts cleared) *)
  n : int;
  protocol : Worker.protocol;
  seed : int64;
  duration : float;  (** injection window, seconds *)
  settle : float;  (** drain time after the window, seconds *)
  rate : float;
  hops : int;
  pattern : Traffic.pattern;
  faults : (float * int) list;  (** (seconds into the run, pid) SIGKILLs *)
  net_faults : Link.faults;
      (** seeded Data-lane drops/dups and burst partitions, passed to
          every worker's transport *)
  restart_delay : float;  (** crash-to-respawn delay, seconds *)
  jitter : float * float;
  telemetry : Worker.telemetry;  (** passed to every worker *)
  link : Link.factory option;  (** every worker's fabric; [None] = UDS *)
}

val default_cfg : cfg
(** 4 workers, Damani-Garg, 3 s of traffic at 8 msg/s/process + 2 s
    settle, no faults, full telemetry. *)

type result = {
  merged : string;  (** path of the merged JSONL trace *)
  chrome : string;  (** path of the merged Chrome trace *)
  events : int;
  dropped : int;  (** torn/unparsable trace lines skipped by the merge *)
  crashes : int;  (** SIGKILLs actually delivered *)
  clean_exits : int;  (** final incarnations that exited 0 *)
}

val merged_file : string -> string
val chrome_file : string -> string
val run_file : string -> string

val validate : cfg -> unit
(** Raises [Invalid_argument] with a one-line message on nonsense
    parameters (a protocol without a live implementation, n < 2,
    non-positive durations/rates, fault pid or time
    out of range, drop/dup rates outside [0, 1), malformed partitions,
    a [dir] whose socket paths would overflow [sun_path]). *)

val clean_dir : cfg -> unit
(** Create [dir] if needed and clear the previous run's artifacts
    (sockets, traces, stores, reports) so a reused directory cannot mix
    two runs' traces. *)

type sv_result = {
  sv_crashes : int;
  sv_clean_exits : int;
  sv_gens : (int * int) list;  (** (pid, final generation) *)
}

val supervise : cfg -> base:float -> workers:int list -> sv_result
(** The fork/SIGKILL/respawn/reap loop over an explicit pid subset —
    the piece a cluster agent reuses for its local block. [base] is the
    run's shared time origin and may lie in the future (coordinated
    multi-host start); the fault schedule is filtered to [workers].
    Does not validate, clean the directory, or merge traces. *)

val write_summary :
  ?extra:(string * Optimist_obs.Json.t) list ->
  cfg -> sv_result -> events:int -> dropped:int -> unit
(** Write [dir/run.json]: parameters, whole fault plan, outcome; [extra]
    fields first. *)

val run : cfg -> result
(** Blocks for [duration + settle] seconds plus shutdown grace. *)
