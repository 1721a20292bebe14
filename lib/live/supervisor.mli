(** Orchestrates one live run: fork the workers, SIGKILL per the plan's
    kill schedule, respawn from stable storage, reap, merge the traces.

    The supervisor is the only process with a global view. Failures are
    real: a scheduled kill delivers SIGKILL to the worker's OS process,
    losing whatever the protocol had not pushed to its {!Store}; after
    [restart_delay] the supervisor forks the next incarnation of the
    same worker ([gen + 1]), which reloads the store and runs the
    protocol's recovery. When the run deadline passes, surviving workers
    exit on their own, traces are merged ({!Merge}) and a [run.json]
    summary is written to the run directory. *)

type result = {
  merged : string;  (** path of the merged JSONL trace *)
  chrome : string;  (** path of the merged Chrome trace *)
  events : int;
  dropped : int;  (** torn/unparsable trace lines skipped by the merge *)
  crashes : int;  (** SIGKILLs actually delivered *)
  clean_exits : int;  (** final incarnations that exited 0 *)
}

val merged_file : string -> string
val run_file : string -> string

val clean_dir : string -> unit
(** Create the run directory if needed and clear the previous run's
    artifacts (sockets, traces, stores, reports) so a reused directory
    cannot mix two runs' traces. Other subdirectories are left alone. *)

type sv_result = {
  sv_crashes : int;
  sv_clean_exits : int;
  sv_gens : (int * int) list;  (** (pid, final generation) *)
}

val supervise :
  dir:string ->
  link:Link.factory ->
  Plan.t ->
  base:float ->
  workers:int list ->
  sv_result
(** The fork/SIGKILL/respawn/reap loop over an explicit pid subset, every
    worker on [link] — the piece a cluster agent reuses for its local
    block. [base] is the run's shared time origin and may lie in the
    future (coordinated multi-host start); the kill schedule is filtered
    to [workers]. Does not validate, clean the directory, or merge
    traces. *)

val finish :
  ?extra:(string * Optimist_obs.Json.t) list ->
  dir:string ->
  Plan.t ->
  sv_result ->
  result
(** Merge the traces under [dir], write the Chrome timeline and
    [dir/run.json] ([extra] fields first, then {!Plan.json_fields}, then
    the outcome). Shared by single-host and cluster runs. *)

val run : dir:string -> Plan.t -> (result, string) Stdlib.result
(** The single-host run over the UDS mesh under [dir]. A one-line
    [Error] (nothing created) when the plan fails {!Plan.validate} or a
    socket path under [dir] would overflow [sun_path]. Blocks for
    [duration + settle] seconds plus shutdown grace. *)
