(** Omniscient observer used to verify the protocol against the paper's
    definitions, independently of the protocol's own data structures.

    The oracle listens on the {!Optimist_core.Types.tracer} interface and
    rebuilds the *ground-truth* computation: every state ever executed (as a
    node of a happened-before DAG with local-successor and message edges),
    which states a failure made {e lost}, and which states a rollback
    discarded. From the DAG it derives the paper's Section 5 definitions
    directly:

    - [lost(s)]: marked when a restart rewinds past [s];
    - [orphan(s)]: [s] is reachable from a lost state;
    - [obsolete(m)]: the send state of [m] is lost or orphan.

    {!check} then decides whether a finished run satisfies Theorem 2 and
    the Section 6.8 properties, without trusting the FTVCs or histories the
    protocol computed. The FTVCs recorded in the nodes are checked
    separately against Theorem 1 by {!check_theorem1}. *)

module Ftvc = Optimist_clock.Ftvc

type t

type status = Live | Lost | Discarded

val create : n:int -> t
(** One root node per process is created, carrying the initial clock. *)

val tracer : t -> Optimist_core.Types.tracer
(** The callback bundle to pass to [Process.create] / [System.create]. *)

(** {2 Ground truth} *)

val status_counts : t -> int * int * int
(** (live, lost, discarded). *)

val failures : t -> int
(** Number of [failed] events observed. *)

val rollbacks_of : t -> int -> int
(** Rollbacks performed by process [pid]. *)


(** {2 Checks} *)

type violation = {
  check : string;
  detail : string;
}

val check : t -> violation list
(** Run all end-of-run consistency checks; empty means the run satisfies
    the paper's correctness properties:
    - [no-live-orphan]: no live state depends on a lost state;
    - [no-needless-rollback]: every discarded state was an orphan;
    - [live-delivery-live-sender]: no live state delivered a message whose
      send state did not survive;
    - [bounded-rollbacks]: each process rolled back at most once per
      failure. *)

val check_theorem1 : t -> sample:int -> seed:int64 -> violation list
(** Verify Theorem 1 on the surviving computation: for [sample] random
    pairs of live states (plus every pair when the DAG is small),
    [s → u ⇔ s.clock < u.clock]. Lost and orphan states are excluded, as
    in the theorem's statement. *)

val pp_stats : Format.formatter -> t -> unit

(** {2 Node iteration}

    Read-only view of the reconstructed computation, for rendering
    (see {!Timeline}) and custom analyses. *)

type node_view = {
  v_id : int;
  v_pid : int;
  v_clock : Ftvc.t;
  v_kind : Optimist_core.Types.state_kind option;  (** [None] for roots *)
  v_status : status;
  v_msg_parent : int option;  (** send state, for delivery nodes *)
}

val iter_nodes : t -> (node_view -> unit) -> unit
(** In creation (id) order — a linearisation consistent with causality. *)
