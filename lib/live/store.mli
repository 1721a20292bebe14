(** On-disk stable storage for one live worker.

    The crash-surviving counterpart of the in-memory
    {!Optimist_storage} structures, and the medium behind the one
    persistence seam, {!Optimist_core.Protocol.store}: every live
    protocol writes and reloads its own stable state through that record,
    which the worker builds over this module. Four slots: an append-only
    message log, append-only checkpoint records, the synchronously
    relogged token list, and a generation counter (the worker generation,
    or the protocol's own epoch for the pessimistic and sender-based
    baselines). Values are marshalled — the protocol's wire and state types
    are all closure-free — and every append is flushed immediately, so a
    SIGKILL (which loses user-space buffers, not kernel page cache)
    cannot lose anything the protocol already considers stable.
    Whole-file rewrites go through temp-file + rename; a torn trailing
    record from a kill mid-append is discarded on load.

    The store is untyped at the module level (Marshal): each worker must
    read back with the same types it wrote, which holds because a store
    directory belongs to exactly one (protocol, worker) pair. *)

type t

val open_ : string -> t
(** Open (creating if needed) the store rooted at the given directory. *)

val append_log : t -> 'e -> unit

val load_log : t -> 'e array
(** Stable log entries, position order. *)

val truncate_log : t -> stable:int -> unit
(** Keep only the first [stable] entries (rollback/restart truncation). *)

val append_checkpoint : t -> position:int -> 'c -> unit

val load_checkpoints : t -> ('c * int) list
(** [(payload, position)], newest first — the shape
    {!Optimist_storage.Checkpoint_store.of_items} expects. *)

val discard_checkpoints_after : t -> position:int -> unit

val write_tokens : t -> 'tk list -> unit
(** Replace the persisted token list (relogged in full on every change). *)

val load_tokens : t -> 'tk list

val write_gen : t -> int -> unit
(** Persist the worker's incarnation generation. *)

val load_gen : t -> int
(** 0 when never written. *)

val stats : t -> (string * int) list
(** I/O accounting since [open_]: [bytes_read], [bytes_written],
    [read_ops], [write_ops]. Feeds the [recovery.bytes_reread]
    telemetry. *)

val bytes_read : t -> int
(** Total bytes loaded from disk since [open_]. *)

val close : t -> unit
