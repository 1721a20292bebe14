(** Fault-Tolerant Vector Clock — the paper's Section 4, Figure 2.

    Each component is a [(version, timestamp)] pair. The version counts the
    owning process's incarnations (failures followed by restarts); the
    timestamp is a Mattern-style logical clock within the incarnation.
    Entries are ordered version-first:
    [e1 < e2  ≡  v1 < v2  ∨  (v1 = v2 ∧ ts1 < ts2)].

    The operations follow Figure 2 exactly:
    - initialisation: every entry [(0,0)], own timestamp set to 1;
    - [sent]: own timestamp advanced after a send;
    - [deliver]: componentwise entry-max with the received clock, then own
      timestamp advanced;
    - [restart]: own version advanced, own timestamp reset to 0 (needs no
      pre-failure timestamp — only the version survives, via the checkpoint
      taken right after recovery);
    - [rolled_back]: own timestamp advanced, version unchanged.

    Values are immutable: every state of the simulated computation keeps its
    exact clock, which the oracle and the paper's lemma-level property tests
    rely on. No operation here mutates an entry array, neither its own nor
    one passed in, so a clock's array can travel on the wire without a copy
    ({!piggyback}); such wire clocks are read-only everywhere.

    Theorem 1 of the paper: for states that are neither lost nor orphan,
    [s → u  ⇔  lt s.clock u.clock]. *)

type entry = { ver : int; ts : int }

type t

(** {2 Construction and the Figure 2 transitions} *)

val create : n:int -> me:int -> t

val sent : t -> t
(** Clock of the next state after sending a message (own ts + 1). The clock
    piggybacked on the message is the *pre*-send clock, per Figure 2. *)

val deliver : t -> received:t -> t
(** Receive rule: entrywise max, own timestamp advanced. Raises
    [Invalid_argument] on size mismatch. *)

val deliver_entries : t -> received:entry array -> t
(** Same, for a raw entry vector (as carried by a message). [received] is
    only read, and the result shares none of its array (it may share its
    immutable entries). *)

val join : t -> t -> t
(** Entrywise max {e without} advancing anything: the pure lattice join.
    Used by observers that combine knowledge they did not causally
    participate in (the matrix clock's non-own rows, the predicate-
    detection monitor). Both clocks must share the owner. *)

val of_entries : me:int -> entry array -> t
(** Wrap a raw entry vector as a clock owned by [me]. *)

val restart : t -> t
(** After a failure: own version + 1, own timestamp 0. *)

val rolled_back : t -> t
(** After a rollback: own timestamp + 1, version unchanged. *)

val rolled_back_from : restored:t -> orphaned:t -> t
(** Clock of the first state after a rollback that restored [restored]
    while the process was at [orphaned].

    When both clocks are in the same incarnation this is
    [rolled_back restored] — the paper's Figure 2 rule, which Figure 5's
    worked example exhibits (r00 = restored timestamp + 1).

    When the rollback crossed the process's own restart point (the restored
    state belongs to an older incarnation — possible when a later failure
    elsewhere orphans states that were replayed during this process's own
    earlier recovery), reverting the version would poison the obsolete test:
    the process already announced that the old incarnation died at some
    timestamp t, so new states of that incarnation growing past t would be
    discarded by every peer holding the token. The paper's pseudo-code does
    not treat this case; we resolve it by keeping the own component's
    *current* incarnation and advancing its timestamp past every value the
    orphaned branch used: [{ver = orphaned.ver; ts = orphaned.ts + 1}].
    All other components revert to the restored state's knowledge. *)

val internal : t -> t
(** Own timestamp advanced; models a logged local (non-deterministic)
    event treated as a message receive, per Section 3. *)

val with_own : t -> entry -> t
(** Replace the own component. Used when replaying a logged rollback
    marker: the marker records the exact own entry the rollback produced,
    and replay must reproduce it bit-for-bit (see
    {!Optimist_core.Process}). *)

(** {2 Accessors} *)

val size : t -> int

val me : t -> int

val get : t -> int -> entry

val own : t -> entry
(** The process's own component — what a failure token carries. *)

val entries : t -> entry array
(** Fresh copy of the underlying vector. *)

val piggyback : t -> entry array
(** The underlying vector itself, not a copy: the clock a message carries.
    Read-only, like every wire clock: the array is shared with the clock
    [t] (and with whatever else holds [t]), so writing to it would change
    them too. Safe because no operation of this module mutates an array.
    Use {!entries} for a vector of your own. *)

(** {2 Orders} *)

val entry_compare : entry -> entry -> int
(** Version-major, timestamp-minor total order on entries. *)

val entry_leq : entry -> entry -> bool

val entry_max : entry -> entry -> entry

val leq : t -> t -> bool
(** Pointwise entry order. *)

val lt : t -> t -> bool
(** The paper's [c1 < c2]: pointwise [<=] and strictly less somewhere. *)

val concurrent : t -> t -> bool

val equal : t -> t -> bool

(** {2 Measurement} *)

val size_words : t -> int
(** Piggyback cost in machine words: 2·n (a version and a timestamp per
    process) — the quantity Table 1 reports as O(n) and Section 6.9
    analyses. *)

val pp : Format.formatter -> t -> unit
