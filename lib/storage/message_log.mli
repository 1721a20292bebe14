(** Receiver-side message log with the paper's volatile/stable split.

    The paper's failure model (Section 3): a process appends every delivered
    message to a volatile buffer and flushes it to stable storage
    asynchronously. On a crash the volatile suffix is wiped — those
    deliveries are unrecoverable and produce *lost states*. On a rollback
    (no crash) the process first flushes, so nothing is lost.

    Entries are indexed by their delivery sequence number, starting at 0.
    The log is one array: the stable prefix, then the volatile suffix. An
    append writes a slot, a flush moves the boundary, and [get] costs the
    same on either side of it.

    A log built with [~key] also keeps the multiset of its entries' keys
    (the duplicate filter of a receiver that keys entries by message
    uid): every append adds its entry's key, a crash or a truncation
    removes the keys of the entries it drops, and a GC keeps them, so
    {!mem_key} answers for every entry delivered into the log and not
    since lost or truncated. *)

type 'entry t

val create : ?key:('entry -> int) -> unit -> 'entry t
(** An empty log. [key] names an entry's key, negative for an entry that
    has none; by default no entry has one. *)

val of_stable : ?key:('entry -> int) -> 'entry array -> 'entry t
(** A log rebuilt from stable storage after a real crash: [entries] (in
    position order) form the stable prefix, the volatile buffer starts
    empty, and the keys are theirs. The array is copied. *)

val append : 'entry t -> 'entry -> unit
(** Record one delivered message in the volatile buffer. *)

val flush : 'entry t -> unit
(** Move the whole volatile buffer to stable storage (the paper's
    asynchronous log write, or the forced write before a checkpoint or a
    rollback). *)

val crash : 'entry t -> unit
(** Simulate the failure: the volatile buffer and its keys disappear. *)

val stable_length : 'entry t -> int
(** Number of entries that survive a crash. *)

val total_length : 'entry t -> int
(** Stable + volatile entries: the process's current delivery count. *)

val get : 'entry t -> int -> 'entry
(** [get t i] returns the i-th delivered message; raises [Invalid_argument]
    when out of range (including entries discarded by [truncate] or
    [gc_prefix]). *)

val iter_range : 'entry t -> from:int -> until:int -> ('entry -> unit) -> unit
(** Apply to entries [from, until). *)

val range : 'entry t -> from:int -> until:int -> 'entry list
(** Entries [from, until), oldest first; raises [Invalid_argument] when
    the range is not readable. *)

val truncate : 'entry t -> int -> unit
(** [truncate t k] keeps only the first [k] entries, and the keys of
    those. Used by rollback to discard the log suffix past the restored
    state (paper Figure 4, Rollback). Requires the suffix not to be below
    the GC floor. *)

val gc_prefix : 'entry t -> int -> unit
(** [gc_prefix t k] reclaims the stable entries below index [k] (paper
    Section 6.5 remark 2): the log holds them no longer, so they can be
    collected. Reading them afterwards is an error; their keys stay, and
    [stable_length] and numbering are unaffected. *)

val gc_floor : 'entry t -> int
(** First index still readable. *)

val mem_key : 'entry t -> int -> bool
(** Does an entry with this key lie in [0, total), GC'd entries included?
    Always false for a log built without [key]. *)

val counters : 'entry t -> Optimist_util.Stats.Counters.t
(** [appends], [flushes], [flushed_entries], [crashes],
    [lost_entries]. *)
