(** Wall-clock event loop for live workers.

    The live counterpart of {!Optimist_sim.Engine}: one-shot timers, a
    [select]-based readiness pump for the worker's socket, and the trace
    recorder — packaged as a {!Optimist_core.Transport.runtime} so the
    protocol code in [lib/core] runs on it unchanged. Time is wall-clock
    seconds relative to a shared [base] (the supervisor's start instant),
    clamped non-decreasing per process so trace timestamps stay monotone. *)

module Trace = Optimist_obs.Trace
module Transport = Optimist_core.Transport

type t

val create : ?tracer:Trace.t -> base:float -> unit -> t
(** [base] is an absolute [Unix.gettimeofday] instant mapped to [t = 0];
    every worker of a run shares it, so per-process timestamps merge into
    one global timeline. *)

val now : t -> float
(** Seconds since [base], non-decreasing. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** One-shot timer; negative delays clamp to "next iteration". *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register a callback run whenever [fd] selects readable. *)

val on_writable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register a callback run whenever [fd] selects writable — used by the
    TCP link for non-blocking connect completion and buffered flushes.
    Writability fires continuously on an idle connected socket, so
    callbacks must deregister themselves ({!remove_writable}) once their
    work is done. *)

val remove_writable : t -> Unix.file_descr -> unit

val remove_fd : t -> Unix.file_descr -> unit
(** Drop [fd] from both the readable and writable sets. *)

val on_seam : t -> (unit -> unit) -> unit
(** Register a hook run at every seam of the loop: after the due timers
    of a turn have fired (before [select] can block) and after each ready
    callback. Hooks run in registration order. {!Link} writes its batched
    frames here. *)

val remove_seam : t -> (unit -> unit) -> unit
(** Drop a hook registered with {!on_seam} (compared physically). *)

val run : t -> until:float -> unit
(** Fire due timers and pump readiness until [now t >= until] or {!stop}.
    Timers still pending at the deadline are dropped. *)

val run_once : t -> max_wait:float -> unit
(** One loop iteration: fire due timers, then select for at most
    [max_wait] seconds. For pumping the loop from a caller with its own
    termination condition (the TCP link's connection barrier) — unlike
    {!run} it never blocks past [max_wait] even when the loop clock is
    idling before the run's base instant. *)

val stop : t -> unit

val tracer : t -> Trace.t

val runtime : t -> Transport.runtime
(** The loop as a protocol substrate ([daemon] is ignored: a live loop
    runs to its deadline regardless of pending timers). *)
