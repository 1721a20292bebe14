(** Wall-clock spans over a trace recorder.

    A span measures how long a stretch of real work took — handling a
    message, flushing the log, the whole recovery path — against a
    monotonic clock, and records it as a {!Trace.Span} event whose [at]
    is the span's start. Spans that nest in time nest visually in the
    Chrome exporter (["X"] complete slices on one thread track), so no
    explicit parent link is stored.

    A {!ctx} bundles the tracer, the clock, and the process identity so
    instrumentation sites stay one-liners. When the tracer is disabled,
    {!finish} still returns the measured duration (callers use it for
    metrics) but emits nothing. *)

type ctx

type span
(** An open span: name plus start timestamp. *)

val create :
  tracer:Trace.t -> now:(unit -> float) -> pid:int -> unit -> ctx
(** [now] must be monotonic (e.g. [Loop.now]); [pid] stamps every
    emitted event. The incarnation defaults to 0 until {!set_version}. *)

val set_version : ctx -> (unit -> int) -> unit
(** Register a thunk queried at {!finish} time for the current
    incarnation number, so spans emitted after a restart carry the new
    version. *)

val start : ctx -> string -> span

val finish : ctx -> span -> float
(** Emits the [Trace.Span] event (if the tracer is enabled) and returns
    the elapsed seconds (clamped at 0). *)

val with_ : ctx -> string -> (unit -> 'a) -> 'a
(** [with_ ctx name f] wraps [f ()] in a span; the span is finished even
    when [f] raises. When the tracer is disabled the span costs nothing:
    [f ()] runs directly, the clock is not read and nothing is
    allocated. *)
