(** One process running the Damani-Garg recovery protocol (paper Figure 4).

    The process wraps a piecewise-deterministic application with:
    - an FTVC maintained per Figure 2;
    - a history table maintained per Figure 3;
    - receiver-side message logging with asynchronous flush, periodic
      checkpointing, and synchronous token logging;
    - the receive path: obsolete-message discard (Lemma 4), deliverability
      postponement (Section 6.1), then delivery;
    - restart after a failure (Section 6.2) and rollback on an orphaning
      token (Sections 6.3–6.4).

    All scheduling and transport go through the {!Transport} seam: the
    simulation instantiates it from the discrete-event engine and the
    simulated network ({!create}), the live runtime from a wall-clock loop
    and real sockets ({!create_rt}); the protocol logic is identical in
    both modes. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Ftvc = Optimist_clock.Ftvc
module History = Optimist_history.History
module Metrics = Optimist_obs.Metrics

type ('s, 'm) t

type ('s, 'm) checkpoint
(** Opaque checkpoint payload: application state, FTVC, history copy and
    output-commit bookkeeping. Exposed (abstractly) so an external stable
    store can persist and reload it. *)

type ('s, 'm) stable_hooks = {
  log_appended : 'm Types.log_entry list -> unit;
      (** entries newly moved to stable storage, oldest first *)
  log_truncated : stable:int -> unit;
      (** rollback/restart cut the stable log back to [stable] entries *)
  checkpoint_recorded : position:int -> ('s, 'm) checkpoint -> unit;
  checkpoints_discarded_after : position:int -> unit;
  tokens_logged : Types.token list -> unit;
      (** the full token list, re-logged synchronously (Section 6.3) *)
}
(** Mirrors every transition of the stable (crash-surviving) state onto an
    external medium. Hooks fire after the in-memory transition and before
    the corresponding trace event. The simulation installs none (every
    hook a no-op); the live runtime writes through to disk so a SIGKILL-ed
    worker can be rebuilt from an {!image}. *)

type ('s, 'm) image = {
  im_log : 'm Types.log_entry array;  (** stable prefix, position order *)
  im_checkpoints : (('s, 'm) checkpoint * int) list;  (** newest first *)
  im_tokens : Types.token list;
}
(** Everything that survives a crash, as reloaded from stable storage. *)

val create :
  engine:Engine.t ->
  net:'m Types.wire Network.t ->
  app:('s, 'm) Types.app ->
  id:int ->
  n:int ->
  ?config:Types.config ->
  ?tracer:Types.tracer ->
  ?metrics:Metrics.Scope.t ->
  ?on_output:(pid:int -> seq:int -> 'm -> unit) ->
  next_uid:(unit -> int) ->
  unit ->
  ('s, 'm) t
(** Creates the process, installs its network handler, records the initial
    checkpoint, and starts the periodic flush/checkpoint timers.

    [metrics] is the scope protocol counters and distributions land in;
    defaults to a fresh unregistered scope labelled
    [("damani-garg", id)]. Structured trace events go to the recorder
    installed on [engine] (see [Engine.set_tracer]); with no recorder the
    instrumentation costs one boolean check per site.

    [on_output] receives application outputs (handler sends addressed to
    {!Types.output_dst}). With [config.commit_outputs] they are delivered
    only once the producing state can never be lost or rolled back
    (Section 6.5); otherwise immediately (optimistically). A pending
    output flushes the process's own log and sends one commit request to
    each peer holding a dependency not yet known to be logged (at most one
    outstanding per peer); the peer flushes and answers with its logged
    frontier. *)

val create_rt :
  rt:Transport.runtime ->
  net:'m Types.wire Transport.t ->
  app:('s, 'm) Types.app ->
  id:int ->
  n:int ->
  ?config:Types.config ->
  ?tracer:Types.tracer ->
  ?metrics:Metrics.Scope.t ->
  ?stable:('s, 'm) stable_hooks ->
  ?restore:('s, 'm) image ->
  ?on_output:(pid:int -> seq:int -> 'm -> unit) ->
  next_uid:(unit -> int) ->
  unit ->
  ('s, 'm) t
(** Substrate-agnostic constructor behind {!create}. [stable] mirrors
    stable-state transitions to an external store (by default every hook
    is a no-op). [restore] rebuilds the process from a previously persisted
    {!image} instead of a blank slate — the in-memory state stays at the
    initial state until {!recover} restores and replays; no initial
    checkpoint is taken. *)

val recover : ('s, 'm) t -> unit
(** Live-mode crash recovery for a process built with [?restore]: emits the
    failure trace preamble (the pre-crash incarnation comes from the latest
    persisted checkpoint) and runs the paper's Restart — restore the
    maximum consistent checkpoint, replay the stable log, broadcast the
    token, increment the incarnation, checkpoint. Raises [Invalid_argument]
    if the checkpoint store is empty. *)

val id : ('s, 'm) t -> int

val alive : ('s, 'm) t -> bool

val state : ('s, 'm) t -> 's
(** Current application state. *)

val clock : ('s, 'm) t -> Ftvc.t

val history : ('s, 'm) t -> History.t

val version : ('s, 'm) t -> int
(** Current incarnation number. *)

val inject : ('s, 'm) t -> 'm -> unit
(** Deliver an environment stimulus: logged and replayed like a message
    receive, with a bottom clock. Ignored while the process is down. *)

val fail : ('s, 'm) t -> unit
(** Crash now: volatile state (unflushed log suffix, held messages, clock,
    history) is lost; the restart event runs [restart_delay] later. Ignored
    if already down. *)

val checkpoint_now : ('s, 'm) t -> unit
(** Force a checkpoint (flushes first, like the periodic one). *)

val flush_now : ('s, 'm) t -> unit

val held_count : ('s, 'm) t -> int
(** Postponed messages currently waiting for tokens. *)

val pending_output_count : ('s, 'm) t -> int
(** Outputs buffered awaiting the commit rule. *)


val share_frontier : ('s, 'm) t -> unit
(** Broadcast this process's logged-frontier view on the control plane;
    used to drain pending outputs once application traffic has quiesced.
    No-op unless [commit_outputs] is enabled. *)

val collect_garbage : ('s, 'm) t -> int * int
(** Reclaim checkpoints and log entries below the newest {e stable}
    checkpoint — one whose dependencies all lie within the logged
    frontiers, which no future rollback can undercut (Section 6.5 remark
    2). Returns (checkpoints, log entries) reclaimed; (0, 0) unless
    [commit_outputs] enables frontier tracking. *)

val checkpoint_count : ('s, 'm) t -> int

val log_length : ('s, 'm) t -> int
(** Stable + volatile entries currently retained (above the GC floor the
    numbering is unaffected). *)

val metrics : ('s, 'm) t -> Metrics.Scope.t
(** The process's metrics scope: counters ([delivered], [injected],
    [sent], [discarded_obsolete], [held], [released], [rollbacks],
    [restarts], [tokens_received], [replayed], [piggyback_words],
    [log_truncated], [checkpoints], [commit_requests], ...), the [held_messages] gauge and
    the [rollback_depth] histogram. *)

val counters : ('s, 'm) t -> (string * int) list
(** [Metrics.Scope.counters (metrics t)] — sorted name/count pairs. *)

val history_record_count : ('s, 'm) t -> int
(** Current O(n·f) history footprint (Section 6.9(3)). *)

val pp_checkpoint :
  log:'m Types.log_entry array ->
  Format.formatter ->
  ('s, 'm) checkpoint * int ->
  unit
(** One line per checkpoint at a log position, independent of how the
    checkpoint is represented: the position, the FTVC, the history records
    of each process by version, the sorted delivered uids, the output
    sequence number and the count of pending outputs. The application
    state is not printed. The uids are those of the stable log prefix
    [log] up to the position: the duplicate filter a restore to this
    checkpoint starts from. *)
