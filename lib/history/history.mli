(** The history mechanism — the paper's Section 5, Figure 3.

    Each process keeps, in volatile memory, one record per known
    [(process, version)] pair. A record is [(kind, version, timestamp)]
    where [kind] says whether the timestamp came from a failure *token*
    (authoritative: the surviving timestamp of that incarnation) or from
    *messages* (the highest timestamp of that incarnation the process has
    causal knowledge of).

    The two detection rules built on it:
    - {b Obsolete message} (Lemma 4): a message whose clock entry for some
      process [j] is [(v, ts)] is obsolete iff the history holds a token
      record [(Token, v, t)] for [j] with [t < ts] — the message depends on
      a state of incarnation [v] past the restoration point.
    - {b Orphan state} (Lemma 3): on receiving token [(v, t)] from [j], the
      local state is orphan iff the history holds a message record
      [(Message, v, t')] for [j] with [t < t'].

    A subtlety the paper states in prose (Section 5) but elides in the
    Figure 3 pseudo-code: once a token record exists for a version it is
    authoritative and is never replaced by a message record — only the
    reverse replacement happens. Message records for the same version keep
    the maximum timestamp seen. We implement the prose semantics.

    History values are mutable (they live in a process) and updated in
    place; [copy] snapshots them into checkpoints. Each process's records
    are kept as one flat [int] array of [(version, timestamp·2 + token
    bit)] pairs in version order, searched from the newest, which is
    almost always the one a delivery asks for: a lookup costs a step or
    two, and noting a newer timestamp rewrites an int, so neither
    allocates. [copy] costs one small array per process and shares
    nothing. {!record} values are not stored: {!find} and {!records}
    build them on demand. *)

type kind = Token | Message

type record = { kind : kind; ver : int; ts : int }

type t

val create : n:int -> me:int -> t
(** Figure 3 initialisation: [(Message, 0, 0)] for every process,
    [(Message, 0, 1)] for the owner. *)

val copy : t -> t

val n : t -> int

val me : t -> int

val find : t -> pid:int -> ver:int -> record option

val note_message_entry : t -> pid:int -> Optimist_clock.Ftvc.entry -> unit
(** Receive-message rule for one clock entry: record the entry's timestamp
    for [(pid, entry.ver)] unless a token record exists for that version or
    a message record with a timestamp at least as large does. *)

val note_clock : t -> sender_clock:Optimist_clock.Ftvc.entry array -> unit
(** Apply {!note_message_entry} to every component of a received message's
    clock (the [∀j] loop of Figure 3). *)

val note_token : t -> pid:int -> ver:int -> ts:int -> unit
(** Token rule: install the authoritative record for [(pid, ver)],
    replacing any message record. *)

val has_token : t -> pid:int -> ver:int -> bool

val tokens_complete_below : t -> pid:int -> ver:int -> bool
(** [tokens_complete_below t ~pid ~ver] is true when a token record exists
    for every version [l < ver] of [pid] — the deliverability condition of
    Section 6.1. *)

val message_obsolete : t -> clock:Optimist_clock.Ftvc.entry array -> bool
(** Lemma 4 test over a whole message clock. *)

val deliverable : t -> clock:Optimist_clock.Ftvc.entry array -> bool
(** Section 6.1 over a whole message clock: {!tokens_complete_below} for
    every entry's process and version. *)

type verdict =
  | Deliver
  | Obsolete  (** {!message_obsolete} *)
  | Hold  (** not obsolete, but not {!deliverable} *)

val classify :
  t -> clock:Optimist_clock.Ftvc.entry array -> hold:bool -> verdict
(** The receive path's decision in one walk of the clock: [Obsolete] if
    the message is obsolete, else [Hold] if [hold] and it is not
    deliverable, else [Deliver]. Allocates nothing. *)

val orphaned_by_token : t -> pid:int -> ver:int -> ts:int -> bool
(** Lemma 3 test: does the local state causally depend on a state of
    [pid]'s incarnation [ver] past timestamp [ts]? *)

val survives_token : t -> pid:int -> ver:int -> ts:int -> bool
(** Negation of {!orphaned_by_token}; the rollback stopping condition
    (Figure 4 condition (I)): either no message record for [(pid, ver)], or
    its timestamp is at most [ts]. *)

val max_known_version : t -> pid:int -> int

val record_count : t -> int
(** Total records held — the O(n·f) memory quantity of Section 6.9(3). *)

val records : t -> pid:int -> record list
(** All records for [pid], sorted by version; for tests and debugging. *)

val equal : t -> t -> bool
(** The same records for every process. *)

val pp : Format.formatter -> t -> unit
