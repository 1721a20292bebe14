(** One live worker process: the protocol stack a forked child runs.

    A worker runs the protocol's live implementation from
    {!Optimist_protocols.Registry} on top of the live substrate: {!Loop}
    as the {!Optimist_core.Transport.runtime}, a {!Link} as the
    transport, a {!Store} as the protocol's
    {!Optimist_core.Protocol.store}, and a per-incarnation JSONL trace
    file. The protocol's constructor writes its stable state to the store
    and, at [gen > 0] (a supervisor respawn after a SIGKILL), reloads it
    itself; the worker then runs the protocol's [recover] — the paper's
    Restart over real stable storage. A respawn whose store holds no
    checkpoint yet starts from the initial state, as gen 0 does. *)

include module type of struct
  include Optimist_protocols.Registry.Ids
end

type protocol = id
(** The registry's protocol enum, re-exported. *)

val all_protocols : protocol list
(** Every protocol the live runtime can host, [Dg] first
    ({!Optimist_protocols.Registry.live_protocols}). *)

val live_check_rules : protocol -> string list
(** {!Optimist_protocols.Registry.live_check_rules}: the rules a merged
    live trace is linted against. *)

type cfg = {
  plan : Plan.t;
  dir : string;  (** run directory: sockets, stores, traces *)
  me : int;
  gen : int;  (** incarnation: 0 on first spawn, +1 per restart *)
  base : float;  (** shared [Unix.gettimeofday] origin of the run *)
  link : Link.factory;  (** the fabric: UDS under [dir], or TCP *)
}

val trace_file : dir:string -> me:int -> gen:int -> string
(** The JSONL trace this incarnation writes. *)

val stats_file : dir:string -> me:int -> gen:int -> string
(** The JSON summary (counters, digest, net stats) written on clean
    exit; absent for incarnations that died to a SIGKILL. *)

val store_dir : dir:string -> me:int -> string
(** The worker's stable-storage directory (shared by incarnations). *)

val uid : n:int -> me:int -> gen:int -> int -> int
(** [uid ~n ~me ~gen seq]: the uid of send number [seq] (from 1) of
    incarnation [gen] of worker [me] among [n]. Distinct for every
    [(me, gen, seq)]: [seq] has 40 bits of its own, so it never carries
    into the generation. Raises [Failure] for a [seq] or [gen] out of
    that range. *)

val main : cfg -> unit
(** Run the worker to its deadline and write the stats file. Blocks;
    meant to be the body of a forked child. Exits 1 if the peer sockets
    do not appear; raises [Invalid_argument] for a protocol without a
    live implementation. A FIFO-assuming protocol runs without the
    link's Data-lane jitter. *)
