(** Depth-first stateless exploration of every schedule and crash
    placement of a configuration, with optional sleep-set partial-order
    reduction and fingerprint pruning. *)

type mode = Naive | Dpor

type opts = {
  depth : int;  (** max branch points per execution *)
  max_steps : int;  (** per-execution event budget (runaway guard) *)
  max_schedules : int;  (** stop after this many executions; 0 = unlimited *)
  fingerprint : bool;
  mode : mode;
  stop_on_violation : bool;
  log_schedules : bool;
      (** record every completed execution's decision sequence (test
          support; memory-heavy on big trees) *)
}

val default_opts : opts
(** depth 6, DPOR, fingerprinting on, stop at first violation. *)

type outcome = {
  o_schedules : int;  (** executions actually run *)
  o_pruned_fp : int;
  o_pruned_sleep : int;
  o_truncated : int;
  o_exhausted : bool;
      (** the frontier drained within the limits: the run covered every
          non-equivalent schedule up to [depth] *)
  o_max_points : int;  (** deepest branch count seen *)
  o_violation : (Dpor.decision list * string list) option;
      (** first counterexample, prefix-minimized *)
  o_all_violations : string list;  (** sorted, deduplicated *)
  o_schedule_log : Dpor.decision list list;
      (** completed executions' decision sequences, in exploration
          order; empty unless [log_schedules] *)
}

val explore :
  build:(unit -> Model.instance) -> crashes:int -> opts -> outcome
