(** Protocol sanitizer and trace linter.

    The paper's correctness argument is a set of checkable invariants:
    the history mechanism detects orphans and obsolete messages
    {e exactly} (Lemmas 3 and 4), FTVCs order states consistently with
    happened-before (Section 4), each process rolls back at most once
    per failure (Section 6), and committed outputs are never orphaned
    (Section 6.5). This module turns those proofs into executable
    checks over the typed event stream of {!Optimist_obs.Trace}.

    One rule engine, two front ends:

    - {b Online sanitizer} — a {!Monitor} attached as a trace sink on a
      live engine ([recsim run --check]); it sees every event as it is
      emitted and can additionally be cross-checked against the
      ground-truth oracle ({!Monitor.cross_check}).
    - {b Offline linter} — {!Lint} replays a recorded JSONL file
      through the same monitor with {e no re-execution}
      ([recsim check FILE.jsonl]): streaming line-by-line schema
      validation, happens-before reconstruction from piggybacked FTVCs,
      send/deliver pairing, rollback counting per failure.

    Rules carry stable numbered ids ([OPT001]…) so CI output, fixtures
    and documentation can reference them; each rule records the lemma
    or section of the paper it enforces.

    The monitor only ever {e reconstructs} per-process knowledge from
    the trace, and the reconstruction errs on the side of knowing more
    than the real process did (crashes and rollbacks erase real history
    records; the monitor's tables survive). Rules are therefore stated
    so that over-approximation cannot produce false alarms — e.g.
    orphan-exactness (OPT010) rejects detections that {e no} knowledge
    could justify, while the missed-orphan direction is covered by the
    online oracle cross-check (OPT014) instead. *)

module Trace = Optimist_obs.Trace
module Ftvc = Optimist_clock.Ftvc

(** {2 Rules} *)

type severity = Error | Warning

type rule = {
  id : string;  (** stable numbered id, e.g. ["OPT008"] *)
  slug : string;  (** kebab-case name, e.g. ["missed-obsolete"] *)
  severity : severity;
  reference : string;  (** the paper lemma/section the rule enforces *)
  doc : string;  (** one-line human description *)
  online_only : bool;
      (** [true] for rules that need live ground truth (the oracle
          cross-check) and are never evaluated by the offline linter *)
}

val rules : rule list
(** All rules, in id order. *)

val all_ids : string list

val offline_ids : string list
(** Ids of rules the offline linter can evaluate (excludes
    [online_only] rules). *)

val find_rule : string -> rule option
(** Look up by id (case-insensitive) or slug. *)

(** {2 Clock comparison}

    The exact comparison the checker uses for FTVC stamps, exposed so
    the property-test suite can verify the laws the rules rely on:
    reflexivity, antisymmetry, transitivity, and agreement with
    {!Optimist_clock.Vclock} ordering when all versions are equal. *)

val clock_leq : Ftvc.entry array -> Ftvc.entry array -> bool
(** Pointwise [Ftvc.entry_leq]; false when widths differ. *)

val clock_equal : Ftvc.entry array -> Ftvc.entry array -> bool

(** {2 Violations} *)

type violation = {
  rule : rule;
  line : int option;  (** 1-based trace-file line (offline linting) *)
  at : float;  (** virtual time of the offending event *)
  pid : int;
  ver : int;  (** incarnation of [pid] at the event *)
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** {2 Monitor — the streaming rule engine} *)

module Monitor : sig
  type t

  val create : ?rules:string list -> unit -> t
  (** [create ~rules ()] checks only the given rules (ids or slugs;
      defaults to {!all_ids}). Raises [Invalid_argument] on an unknown
      rule name. *)

  val feed : ?line:int -> t -> Trace.event -> unit
  (** Advance the monitor by one event. Events must arrive in trace
      order (the engine's deterministic event order). *)

  val finish : t -> violation list
  (** Run end-of-trace rules (output-commit safety against the full
      token set, unmatched failures) and return every violation in
      detection order. Idempotent over the end-of-trace rules. *)

  val sink : t -> Trace.sink
  (** The monitor as a trace sink, for online attachment:
      [Trace.attach trace (Monitor.sink m)], where [trace] is the enabled
      recorder the run emits into. *)

  val events_seen : t -> int

  val failures : t -> int
  (** Failure events observed so far. *)

  val rollbacks_of : t -> int -> int
  (** Rollback events observed at the given pid. *)

  val cross_check :
    t -> n:int -> failures:int -> rollbacks_of:(int -> int) -> unit
  (** Compare the monitor's observed failure/rollback counts against
      the ground-truth oracle's global timeline ([n] = process count).
      Mismatches are recorded as OPT014 violations (when enabled) and
      reported by the next {!finish}. Online use only. *)
end

(** {2 Lint — the offline file front end} *)

module Lint : sig
  type report = {
    file : string;
    events : int;  (** events parsed (excluding blank/bad lines) *)
    parse_errors : int;
    declared_schema : int option;
        (** the version the trace's schema header declares; [None] for
            headerless (pre-version-2) traces *)
    rules_checked : rule list;
    violations : violation list;  (** detection order *)
  }

  val schema_mismatch : report -> int option
  (** [Some v] when the trace declares a schema version [v] this reader
      does not accept (see {!Trace.schema_accepts}; v2 and v3 are both
      fine). Headerless traces are tolerated ([None]). *)

  val run :
    ?only:string list ->
    ?ignore:string list ->
    string ->
    (report, string) result
  (** [run file] streams [file] through a fresh monitor. [only]
      restricts checking to the named rules, [ignore] disables rules
      (both accept ids or slugs; [ignore] wins). Defaults to every
      offline rule. [Error _] on an unreadable file or an unknown rule
      name — never on trace contents (those are violations). *)

  val errors : report -> int
  (** Violations of [Error] severity. *)

  val warnings : report -> int

  val pp_human : Format.formatter -> report -> unit
  (** One ["file:line: [OPTxxx] slug: message"] line per violation plus
      a summary line. *)

  val to_json : report -> Optimist_obs.Json.t
end
