(** Structured protocol tracing.

    The paper's argument is about causally ordered event histories —
    orphan detection, obsolete-message discard, at-most-one rollback per
    failure — so the simulator records exactly those observable events as
    a typed stream: each {!event} is stamped with virtual time, process
    id, the process's incarnation number, and (where one exists) the
    FTVC carried by or produced at the event.

    A {!t} (recorder) fans events out to pluggable {!sink}s: an in-memory
    ring buffer for tests, a JSONL writer, and a Chrome [trace_event]
    exporter that loads in [about://tracing]/Perfetto. Tracing is off by
    default; a disabled recorder costs one boolean load per potential
    event — call sites guard event construction with {!enabled}, so no
    closure or record is allocated on the hot path.

    Because the simulation engine is deterministic, the same seed yields
    a byte-identical JSONL stream, which turns recorded traces into
    golden-file regression tests for the protocol itself. *)

module Ftvc = Optimist_clock.Ftvc

(** {2 Events} *)

type kind =
  | Send of { uid : int; dst : int }
      (** application message handed to the network *)
  | Deliver of { uid : int; src : int }
      (** message delivered to the application ([src = -1]: environment
          stimulus) *)
  | Drop_obsolete of { uid : int; src : int }
      (** receive-path discard by the Lemma 4 obsolete test (or a
          baseline's equivalent) *)
  | Checkpoint of { position : int }
      (** checkpoint recorded at the given log position *)
  | Log_flush of { stable : int }
      (** volatile log suffix forced to stable storage; [stable] is the
          new stable length *)
  | Failure  (** crash: volatile state lost *)
  | Restart of { new_ver : int }  (** first state of a new incarnation *)
  | Token_sent of { origin : int; ver : int; ts : int }
      (** failure announcement broadcast *)
  | Token_recv of { origin : int; ver : int; ts : int }
  | Rollback of { discarded : int }
      (** orphan rollback; [discarded] counts the log entries thrown
          away *)
  | Orphan_detected of { origin : int; ver : int; ts : int }
      (** the Lemma 3 orphan test fired against this token *)
  | Output_commit of { seq : int }
      (** a buffered output passed the commit rule and was released *)
  | Span of { name : string; dur : float }
      (** wall-clock span: [at] is the (monotonic) start, [dur] the
          elapsed seconds; renders as a complete ["X"] slice in the
          Chrome exporter *)
  | Snapshot of { protocol : string; values : (string * float) list }
      (** periodic metrics snapshot for the named protocol; renders as a
          ["C"] counter record in the Chrome exporter *)
  | Custom of { name : string; detail : string }
      (** anything else (network drops, holds, gossip, ...) *)

type event = {
  at : float;  (** virtual time *)
  pid : int;  (** process the event happened at *)
  ver : int;  (** that process's incarnation number at the event *)
  clock : Ftvc.entry array;
      (** FTVC stamp: the sender's clock for message events, the
          process's own for state events; [[||]] when no clock applies *)
  kind : kind;
}

val kind_name : kind -> string
(** Stable lower-snake-case discriminator, e.g. ["drop_obsolete"]. *)

val kind_names : string list
(** Every discriminator {!kind_name} can produce (for CLI filters). *)

(** {2 Schema version} *)

val schema_version : int
(** Version of the JSONL encoding this library writes. Bumped whenever
    the format changes shape. *)

val schema_accepts : int -> bool
(** [schema_accepts v] is [true] when this reader understands streams
    declaring version [v] — currently 2 and 3, since v3 only added the
    [Span]/[Snapshot] kinds. Readers should warn (and fail only under
    [--strict]) on unknown higher versions. *)

val schema_header : event
(** The header record every {!jsonl_sink} stream starts with: a
    [Custom {name = "schema"; detail = "version=N"}] event at [t = 0]
    with [pid = -1]. Rule engines skip [Custom] events, so the header is
    inert for linting. *)

val schema_of_event : event -> int option
(** [Some v] iff the event is a schema header declaring version [v];
    used by readers to detect version mismatches. Headerless traces
    (written before version 2) simply never yield [Some _]. *)

(** {2 Sinks} *)

type sink

val sink : ?close:(unit -> unit) -> (event -> unit) -> sink
(** Custom sink from an event callback. *)

module Ring : sig
  (** Bounded in-memory sink: keeps the most recent [capacity] events in
      arrival order. The default test sink. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 4096. *)

  val sink : t -> sink
  val length : t -> int

  val to_list : t -> event list
  (** Oldest first. *)

  val clear : t -> unit
end

val jsonl_sink : (string -> unit) -> sink
(** One JSON object per event, one event per line: each event is one call
    of the writer, with its {!to_line} and the ['\n'] together. The
    {!schema_header} line is written immediately when the sink is created.
    Deterministic byte-for-byte for a fixed event stream. *)

val chrome_sink : (string -> unit) -> sink
(** Chrome [trace_event] (catapult) JSON, loadable in [about://tracing]
    and Perfetto: instant events per trace event, flow arrows from each
    [Send] to its [Deliver] (matched by message uid), a "down" duration
    slice between [Failure] and [Restart], a complete ["X"] slice per
    [Span], and a ["C"] counter record per [Snapshot]. The stream is
    only valid JSON once the sink is closed (via {!close}). *)

(** {2 Recorder} *)

type t

val null : t
(** Shared disabled recorder: {!enabled} is [false] forever and
    {!attach} rejects it. The default everywhere. *)

val create : unit -> t
(** A recorder with no sinks; disabled until the first {!attach}. *)

val enabled : t -> bool
(** The hot-path guard. Instrumented code must test this before
    constructing an event:
    [if Trace.enabled tr then Trace.emit tr { ... }]. *)

val attach : t -> sink -> unit
(** Adds a sink and enables the recorder. Raises [Invalid_argument] on
    {!null}. *)

val emit : t -> event -> unit
(** Fans the event out to every sink (in attachment order). No-op when
    disabled. *)

val close : t -> unit
(** Closes every sink (finalizing file formats). The recorder is
    disabled afterwards. *)

(** {2 JSONL encoding} *)

val to_json : event -> Json.t
val of_json : Json.t -> (event, string) result

val to_line : event -> string
(** [Json.to_string (to_json e)] — no trailing newline — written directly
    from the event with {!Json}'s scalar writers, without building the
    {!Json.t}. [to_json] stays the reference it is tested against. *)

val of_line : string -> (event, string) result

(** {2 Streaming JSONL reader}

    Both functions read a trace file one line at a time — constant
    memory, so arbitrarily long recordings can be linted or rendered.
    Line numbers are 1-based (editor convention) and blank lines are
    skipped without consuming a number slot's callback. A line that
    fails to parse is reported as [Error msg] rather than aborting the
    scan, so callers can count or surface malformed lines and keep
    going. Raises [Sys_error] if the file cannot be opened or read. *)

val fold_file :
  string -> init:'a -> f:('a -> line:int -> (event, string) result -> 'a) -> 'a

val iter_file : string -> f:(line:int -> (event, string) result -> unit) -> unit

(** {2 Pretty-printing} (the [recsim trace] renderer) *)

val pp_event : Format.formatter -> event -> unit
