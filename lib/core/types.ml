(** Shared types of the recovery protocol: the application interface, the
    wire format, process configuration, and the trace interface the oracle
    listens on. *)

module Ftvc = Optimist_clock.Ftvc

(** {2 Application interface}

    The paper's computation model (Section 3): processes are piecewise
    deterministic — everything a process does between two message deliveries
    is a deterministic function of the delivered message and the state at
    delivery. That determinism is what makes replay-based recovery work, and
    the process engine exploits it literally: during replay the handler runs
    again and its outputs are suppressed.

    [src] is the sender's process id, or [env_src] (-1) for an environment
    stimulus injected by the workload (the paper's "non-deterministic action
    modeled by treating it as a message receive"). *)

type ('s, 'm) app = {
  init : int -> 's;  (** initial state of process [i] *)
  on_message : me:int -> src:int -> 's -> 'm -> 's * (int * 'm) list;
      (** deterministic handler: returns the next state and messages to
          send as [(destination, payload)] pairs *)
}

let env_src = -1

(** {2 Wire format} *)

(** An application message as it travels: payload plus the sender's FTVC at
    send time. [uid] is a simulation-global identifier used by the oracle
    and the metrics; the protocol itself never reads it.

    [frontier] is the sender's view of every process's *logged frontier*
    (the own clock entry at its last stable flush), piggybacked only when
    output commit is enabled; empty otherwise. A state all of whose
    dependencies lie within the logged frontiers can never be lost or
    orphaned, so outputs it produced are safe to release (Section 6.5:
    "before committing an output to the environment, a process must make
    sure that it will never rollback the current state or lose it in a
    failure"). Logged frontiers are crash-proof: a restart replays the whole
    stable log, so the restoration point is always at or beyond any frontier
    ever advertised. *)
type 'm app_msg = {
  data : 'm;
  clock : Ftvc.entry array;
      (** read-only: the sender's pre-send clock array itself
          ({!Ftvc.piggyback}), shared with the sender's clock, its trace
          and the receiver's log; nothing may write to it *)
  frontier : Ftvc.entry array;
  sender : int;
  uid : int;
}

(** A failure announcement (Section 6.2): the failed incarnation's number
    and the timestamp of the restored state — everything of version [ver]
    past [ts] is lost. *)
type token = { origin : int; ver : int; ts : int }

(** With the Section 6.5 remark-1 extension enabled, the token also carries
    the full FTVC of the restored state so that peers can retransmit the
    messages the failed process lost (sends not in the restored state's
    causal past). *)
type 'm wire =
  | Wire_app of 'm app_msg
  | Wire_token of { token : token; restored : Ftvc.entry array option }
  | Wire_frontier of { origin : int; frontier : Ftvc.entry array; flush : bool }
      (** [origin]'s logged-frontier view. With [flush] it is a commit
          request: a pending output at [origin] depends on the receiver's
          unlogged state, so the receiver merges the view, flushes its log
          at once and answers [origin] alone with its own view (sent on
          the Data lane, like the request). Without [flush] it is an
          answer or the flush timer's gossip, which drains pending outputs
          when application traffic alone would not spread logging
          progress and stands in for a lost request or a dead target. *)

(** {2 Log entries}

    What the receiver logs per delivery — exactly the message content, which
    with piecewise determinism suffices to replay the delivery. Environment
    injections are logged with [sender = env_src] and a bottom clock.

    [L_rollback] is a stable marker this implementation adds beyond the
    paper's pseudo-code: a rollback advances the own FTVC timestamp (Figure
    2, "On Rollback"), but that bump is not a message delivery, so a later
    crash whose replay crosses the rollback point would silently reconstruct
    clocks one tick behind the ones the process actually used — breaking
    orphan detection at every peer holding the real timestamps. The marker
    records the own entry the rollback produced; replay reinstates it
    exactly. It is flushed synchronously when written (rollbacks are as rare
    as failures, like the paper's synchronously-logged tokens). *)

type 'm log_entry =
  | L_msg of 'm app_msg
  | L_rollback of Ftvc.entry  (** own component right after the bump *)

(** {2 Configuration} *)

(** Deliberately broken protocol variants, the registry's mutants: each
    disables exactly one mechanism a sanitizer rule or the oracle
    guards, so an exploration of the mutant must produce a
    counterexample. [recsim run -p M] reaches them as well as
    [recsim mc -p M]; such a run tests the checkers, nothing else. *)
type mutation =
  | M_none
  | M_drop_piggyback
      (** do not piggyback the FTVC on the 0 → 1 edge (breaks the
          Section 5 history mechanism; OPT004 catches the mismatch) *)
  | M_skip_dedup
      (** deliver duplicates instead of suppressing them by uid
          (breaks the Section 3 channel contract; OPT003) *)
  | M_eager_rollback
      (** roll back on every received token, orphaned or not (breaks
          Lemma 3 exactness / at-most-one-rollback; OPT011) *)

type config = {
  checkpoint_interval : float;
      (** virtual time between periodic checkpoints *)
  flush_interval : float;
      (** virtual time between asynchronous log flushes *)
  restart_delay : float;
      (** downtime between a crash and the restart event *)
  hold_undeliverable : bool;
      (** Section 6.1 deliverability: postpone messages whose clock
          references a version for which some token is still missing.
          Disabling this is an ablation; correctness (Theorem 2) survives
          but more orphans are created and rolled back. *)
  log_tokens : bool;
      (** Section 6.3 synchronous token logging. Disabling this is an
          ablation that loses token knowledge on a crash — the oracle can
          then observe undetected orphans. *)
  drop_in_flight_on_crash : bool;
      (** if true, messages that arrive while a process is down are
          dropped rather than queued for the new incarnation (a harsher
          network model). *)
  retransmit_lost : bool;
      (** Section 6.5 remark 1: keep a volatile send-history; when a token
          arrives carrying the restored clock, resend every message whose
          send state is concurrent with (not causally included in) the
          restored state. Receivers suppress the resulting duplicates by
          message uid. Without this, deliveries wiped by a crash are lost
          forever, exactly as the paper notes. *)
  commit_outputs : bool;
      (** Section 6.5: track logged frontiers (piggybacked on messages and
          gossiped on flush) and buffer application outputs until the
          producing state provably can never be lost or rolled back. *)
  mutation : mutation;
      (** which deliberate bug (if any) to enable; [M_none] normally *)
}

let default_config =
  {
    checkpoint_interval = 200.0;
    flush_interval = 25.0;
    restart_delay = 20.0;
    hold_undeliverable = true;
    log_tokens = true;
    drop_in_flight_on_crash = false;
    retransmit_lost = false;
    commit_outputs = false;
    mutation = M_none;
  }

let output_dst = -1
(** Send destination that designates the external environment: a handler
    send [(output_dst, payload)] is an output, subject to the commit rule
    when [commit_outputs] is set (released immediately otherwise). *)

(** {2 Tracing}

    Every observable protocol action, for the oracle and for debugging.
    [state_created] fires for each new state in the live computation (never
    during replay — replayed states already exist). The restore callbacks
    carry the clock of the restored state so the listener can locate it. *)

type state_kind =
  | K_deliver of int  (** delivery of message [uid] *)
  | K_inject  (** environment stimulus *)
  | K_send  (** state entered after sending a message *)
  | K_restart  (** first state of a new incarnation *)
  | K_rollback  (** first state after a rollback *)

type tracer = {
  state_created : pid:int -> clock:Ftvc.t -> kind:state_kind -> unit;
  message_sent : src:int -> uid:int -> unit;
      (** the current state of [src] is the message's send state *)
  failed : pid:int -> unit;
  restored : pid:int -> clock:Ftvc.t -> failure:bool -> unit;
      (** recovery rewound [pid] to the state with [clock]; [failure]
          distinguishes a restart (lost states) from a rollback (discarded
          orphan states) *)
  delivered : pid:int -> uid:int -> unit;
  discarded_obsolete : pid:int -> uid:int -> unit;
  held : pid:int -> uid:int -> unit;
}

let null_tracer =
  {
    state_created = (fun ~pid:_ ~clock:_ ~kind:_ -> ());
    message_sent = (fun ~src:_ ~uid:_ -> ());
    failed = (fun ~pid:_ -> ());
    restored = (fun ~pid:_ ~clock:_ ~failure:_ -> ());
    delivered = (fun ~pid:_ ~uid:_ -> ());
    discarded_obsolete = (fun ~pid:_ ~uid:_ -> ());
    held = (fun ~pid:_ ~uid:_ -> ());
  }
