(** Typed metrics with [(protocol, process)] labels.

    Replaces the ad-hoc [Stats.Counters] strings inside the protocol
    engines: each process owns a {!Scope} — a bag of named counters,
    gauges, summaries and histograms — labelled with the protocol it
    runs and its process id. Scopes register themselves in a
    {!registry}, so a run can be interrogated both per-process
    ([Scope.counters]) and in aggregate ({!totals}), which is what the
    runner's reports and the bench tables consume.

    Counter names keep the seed repo's dotted convention
    (["msg.sent"], ["rollback.count"], ...) so existing reports stay
    comparable across protocols. Instruments are created lazily on
    first use; reading a name that was never touched yields the zero
    value, never an exception. *)

module Stats = Optimist_util.Stats

type labels = { protocol : string; process : int }

type registry

val registry : unit -> registry

module Scope : sig
  type t

  val create : ?registry:registry -> protocol:string -> process:int -> unit -> t
  (** A fresh scope; when [registry] is given the scope is registered
      for aggregation. *)

  val labels : t -> labels

  (** {2 Counters} — monotone integer counts. *)

  val incr : ?by:int -> t -> string -> unit
  (** Same shape as [Stats.Counters.incr]; [by] defaults to 1. *)

  val get : t -> string -> int
  (** 0 for a name never incremented. *)

  val counters : t -> (string * int) list
  (** Sorted by name. *)

  (** {2 Gauges} — last-write-wins instantaneous values. *)

  val set_gauge : t -> string -> float -> unit
  val gauge : t -> string -> float
  (** 0.0 for a name never set. *)

  val gauges : t -> (string * float) list
  (** Sorted by name. *)

  (** {2 Summaries and histograms} — distributions of observations. *)

  val observe : t -> string -> float -> unit
  (** Adds to the named [Stats.Summary] (created on first use). *)

  val summary : t -> string -> Stats.Summary.t option

  val observe_hist : ?buckets:float array -> t -> string -> float -> unit
  (** Adds to the named [Stats.Histogram]; [buckets] only takes effect
      at creation (first observation). *)

  val histogram : t -> string -> Stats.Histogram.t option

  val snapshot : t -> (string * float) list
  (** The scope flattened to one name-sorted list of floats — the
      payload of a [Trace.Snapshot] telemetry record. Counters appear
      under their own name; summaries contribute [name.count],
      [name.mean], [name.max]; histograms contribute [name.count],
      [name.p50], [name.p95] (interpolated quantiles). Deterministic
      for a given scope state. *)

  val snapshot_prefixed : prefix:string -> t -> (string * float) list
  (** {!snapshot} with [prefix] prepended to every name — how wire-level
      scopes (the cluster links' ["link."] namespace) embed into a
      worker's snapshot stream without colliding with protocol metric
      names. *)

  val pp : Format.formatter -> t -> unit
end

(** {2 Aggregation across scopes} *)

val scopes : registry -> (labels * Scope.t) list
(** In registration order. *)

val totals : ?protocol:string -> registry -> (string * int) list
(** Counter totals summed across every scope (optionally restricted to
    one protocol label), sorted by name. *)

val total : ?protocol:string -> registry -> string -> int

type agg = { count : int; total : float; mean : float; min : float; max : float }
(** Cross-scope rollup of one summary name; zeros when no scope has
    observations for it. *)

val aggregate : ?protocol:string -> registry -> string -> agg
(** Every scope's observations for [name] folded together. *)

val pp : Format.formatter -> registry -> unit
