(** Stable checkpoint storage.

    Each checkpoint snapshots an opaque payload (application state plus
    whatever recovery metadata the protocol needs) tagged with the delivery
    sequence number it corresponds to: a checkpoint at position [k] is the
    state reached after delivering the first [k] logged messages, so
    restoring it and replaying entries [k, …) of the {!Message_log}
    reconstructs later states.

    Checkpoints are stable by definition — the paper requires all unlogged
    messages to be flushed when a checkpoint is taken — so they survive
    [crash] untouched. *)

type 'cp t

val create : unit -> 'cp t

val of_items : ('cp * int) list -> 'cp t
(** A store rebuilt from stable storage after a real crash: [(payload,
    position)] pairs, newest first (positions non-increasing, checked). *)

val record : 'cp t -> position:int -> 'cp -> unit
(** Append a checkpoint for delivery position [position]. Positions must be
    non-decreasing. *)

val latest : 'cp t -> ('cp * int) option
(** Most recent checkpoint and its position. *)

val latest_is : 'cp t -> ('a -> 'cp -> int -> bool) -> 'a -> bool
(** [latest_is t pred arg] is [pred arg payload position] for the most
    recent checkpoint, [false] when there is none. It allocates nothing. *)

val latest_satisfying : 'cp t -> ('cp -> int -> bool) -> ('cp * int) option
(** [latest_satisfying t pred] returns the most recent checkpoint for which
    [pred payload position] holds — the paper's "restore the maximum
    checkpoint such that …" (Figure 4, Rollback, condition (I)). *)

val discard_after : 'cp t -> position:int -> unit
(** Drop checkpoints strictly beyond [position]; used by rollback to discard
    checkpoints of rolled-back states. *)

val gc_before : 'cp t -> position:int -> int
(** Reclaim all checkpoints older than the newest one at or below
    [position] — the newest such checkpoint is kept because it is needed for
    any future rollback to [position] or later. Returns the number
    reclaimed. *)

val count : 'cp t -> int

val positions : 'cp t -> int list
(** Positions of stored checkpoints, oldest first; for tests. *)
