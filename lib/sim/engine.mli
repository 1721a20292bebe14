(** Deterministic discrete-event simulation engine.

    The engine owns virtual time and a queue of pending events. Events
    scheduled for the same instant fire in scheduling order, so a run is a
    pure function of the seed and the model — which is what lets the test
    suite replay any failing scenario from its printed seed.

    The recovery protocols, the network model, and the failure injector are
    all expressed as event handlers over one shared engine. *)

type t

type time = float
(** Virtual time. Starts at 0. *)

type cancel
(** Handle for revoking a scheduled event. *)

type label = {
  l_kind : string;  (** e.g. ["deliver"], ["restart"], ["timer"] *)
  l_pid : int;  (** process the event acts on; [-1] when not applicable *)
  l_src : int;  (** sending process for deliveries; [-1] otherwise *)
  l_info : string;  (** free-form discriminator, e.g. the traffic lane *)
}
(** Identity of a scheduled event as seen by a scheduling strategy.
    Labels are stable across replays of the same model (they name what
    the event {e does}, not when it was scheduled), which is what lets
    the model checker address "the delivery from 0 to 2" across
    different interleavings. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes an engine whose PRNG is seeded with [seed]
    (default [1L]). *)

val now : t -> time

val rng : t -> Optimist_util.Prng.t
(** The engine's root PRNG. Components should [Prng.split] their own
    stream from it at setup time. *)

val tracer : t -> Optimist_obs.Trace.t
(** The trace recorder shared by everything built over this engine
    (network, processes, protocols). [Trace.null] unless
    {!set_tracer} was called — i.e. tracing is off by default and the
    instrumented hot paths pay only a [Trace.enabled] check. *)

val set_tracer : t -> Optimist_obs.Trace.t -> unit
(** Install a recorder. Call before constructing the model so every
    component picks it up. *)

val schedule :
  t -> ?daemon:bool -> ?label:label -> delay:time -> (unit -> unit) -> cancel
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    finite and non-negative ([Invalid_argument] otherwise). Returns a
    cancellation handle.

    A [daemon] event (default [false]) does not keep the simulation alive:
    [run] stops once only daemon events remain. Periodic self-rescheduling
    timers (log flush, checkpointing) are daemons; everything that is real
    work (message deliveries, crashes, stimuli) is not.

    [label] (default: an anonymous label that a strategy can tell apart
    from another only by queue order) names the event for scheduling strategies;
    it has no effect on execution. *)

val schedule_at :
  t -> ?daemon:bool -> ?label:label -> time -> (unit -> unit) -> cancel
(** Absolute-time variant; the time must be finite and not in the past
    ([Invalid_argument] otherwise). *)

val cancel : t -> cancel -> unit
(** Revoke a pending event; no effect if it already fired or was
    cancelled. *)

val run : ?until:time -> ?max_events:int -> t -> unit
(** Drain the event queue. Stops when no non-daemon events remain, when
    virtual time would exceed [until], or after [max_events] events (a
    runaway guard; default 50 million). Events at exactly [until] still
    fire.

    When [until] is given and the run stops with the clock still behind
    it, the clock is advanced to [until], so [now] afterwards reflects
    the requested end time even if the model went quiet first. Daemon
    events left queued before the horizon still fire (at the advanced
    clock) if the simulation is resumed. *)

val step : t -> bool
(** Fire the single next event; [false] when the queue is empty. With a
    strategy installed (see {!set_strategy}), fire the enabled event the
    strategy picks instead of the FIFO head. *)

(** {2 Scheduler seam}

    Events scheduled for the same virtual instant are mutually
    concurrent: the engine's default FIFO tie-break is one valid
    serialization among many. A {e strategy} replaces that tie-break
    with an arbitrary choice over the {e enabled set} — the non-cancelled
    events queued for the earliest instant — which is the seam the
    model checker ([lib/mc]) drives to enumerate interleavings. *)

type candidate = {
  c_seq : int;  (** engine sequence number; unique handle for this run *)
  c_at : time;
  c_daemon : bool;
  c_label : label;
}

type strategy = candidate array -> int
(** Called by {!step} with the enabled set (ascending [c_seq]); returns
    the index of the event to fire. The strategy may perform side
    effects (e.g. inject a crash) before answering; if its side effects
    cancel the chosen event, {!step} re-gathers and asks again. *)

val set_strategy : t -> strategy option -> unit
(** Install or remove a scheduling strategy. [None] (the initial state)
    restores the default deterministic FIFO order. *)

val enabled : t -> candidate array
(** The current enabled set, in ascending [c_seq] order; empty when the
    queue is drained. Inspection only — does not advance time. *)

val queued : t -> candidate array
(** Every pending non-cancelled event (daemons included), ascending
    [(time, seq)]. O(pending); meant for state fingerprinting in the
    model checker, not for hot paths. *)

val pending : t -> int
(** Number of events still queued (including cancelled tombstones). *)

val live_pending : t -> int
(** Number of queued events that will actually fire — cancelled
    tombstones excluded, daemons included. Unlike {!pending}, this is an
    accurate enabled-work measure. *)

val live_work : t -> int
(** Queued non-daemon, non-cancelled events — the count {!run} uses to
    decide quiescence. [0] means only daemon timers (or tombstones)
    remain. *)

val events_fired : t -> int
(** Total events executed since creation. *)
