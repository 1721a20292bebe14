(** Streaming descriptive statistics and named counters.

    Experiment runs accumulate observations (latencies, rollback depths,
    piggyback sizes) into [Summary.t] values and integer [Counter]s; the
    bench harness turns them into the rows of the paper's tables. *)

module Summary : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Population variance (Welford); 0 when fewer than two samples. *)

  val min : t -> float
  (** 0 when empty. *)

  val max : t -> float
  (** 0 when empty. *)

  val pp : Format.formatter -> t -> unit
  (** Prints just ["n=0"] for an empty summary. *)
end

module Histogram : sig
  type t

  val create : ?buckets:float array -> unit -> t
  (** [buckets] are upper bounds of the histogram bins, strictly
      increasing; observations above the last bound land in an overflow
      bin. The default covers 1..10^6 in half-decade steps. *)

  val add : t -> float -> unit
  (** Buckets are [(lower, upper]] intervals: an observation equal to an
      upper bound lands in that bucket deterministically. *)

  val count : t -> int
  val sum : t -> float
  (** Sum of all observations; 0 when empty. *)

  val bounds : t -> float array
  (** Copy of the finite upper bounds. *)

  val counts : t -> int array
  (** Copy of the per-bucket counts; one longer than [bounds], the last
      entry being the overflow bucket. *)

  val merge : t -> t -> t
  (** Combine two histograms with identical bounds into a fresh one.
      @raise Invalid_argument when the bounds differ. *)

  val percentile : t -> float -> float
  (** [percentile t 0.99] returns an upper bound of the bucket containing
      the given quantile; [nan] when empty. *)

  val quantile : t -> float -> float
  (** Bucket-interpolated quantile: linear interpolation inside the
      bucket containing the target rank ([0.0] as the implicit lower edge
      of the first bucket). Observations in the overflow bucket clamp to
      the last finite bound. [nan] when empty. *)

  val pp : Format.formatter -> t -> unit
end

module Counters : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int

  type counter
  (** A handle on one named counter, for a hot path: the name is looked
      up on the handle's first increment and never again. The handle and
      a by-name {!incr} of the same name count in one cell. *)

  val counter : t -> string -> counter
  (** Registers nothing: the name appears in {!to_list} only once it has
      been incremented, by the handle or by name. *)

  val bump : ?by:int -> counter -> unit
  (** Same as [incr ?by t name]. *)

  val to_list : t -> (string * int) list
  (** Sorted by name. *)

  val pp : Format.formatter -> t -> unit
end
