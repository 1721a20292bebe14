(** A mutable multiset of non-negative ints: the duplicate filter a
    {!Message_log} keeps over its entries' keys, in place of a persistent
    [Set.Make (Int)] that every insertion path-copied.

    One flat int array, open addressing with linear probing: [add],
    [remove] and [mem] allocate nothing, except when [add] doubles the
    table, which it does when the table would pass half full. A key added
    [k] times is a member until it has been removed [k] times. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty multiset with room for [capacity] occurrences (default 8)
    before it first grows. *)

val add : t -> int -> unit
(** One more occurrence. Raises [Invalid_argument] on a negative key. *)

val remove : t -> int -> unit
(** One occurrence fewer; nothing if the key is absent or negative. *)

val mem : t -> int -> bool
(** At least one occurrence. False for a negative key. *)
