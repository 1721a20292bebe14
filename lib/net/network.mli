(** Simulated message-passing network.

    Models the transport the paper assumes: point-to-point application
    messages with no ordering guarantees by default (the protocol must not
    need FIFO), plus a *control plane* for recovery tokens which the paper
    assumes are delivered reliably — control traffic is never dropped and is
    queued across partitions until they heal.

    Two traffic classes:
    - [Data]: subject to the configured ordering, latency, loss and
      partitions. Used for application messages.
    - [Control]: reliable; delayed by partitions but never lost. Used for
      tokens and protocol-internal coordination (e.g. retransmission
      requests).

    All delays draw from the engine's PRNG, so runs remain deterministic. *)

type 'a t

type traffic = Data | Control

type ordering =
  | Fifo  (** per-channel FIFO, as Strom-Yemini and Peterson-Kearns require *)
  | Reorder  (** independent per-message latency; arbitrary interleaving *)

type latency =
  | Constant of float
  | Uniform of float * float
  | Exponential of float  (** mean *)

type config = {
  n : int;  (** number of endpoints, ids [0, n) *)
  ordering : ordering;
  latency : latency;
  control_latency : latency option;
      (** latency for [Control] traffic; defaults to [latency]. Letting the
          control plane be slower/faster than the data plane reproduces
          token/message races like the one in the paper's Figure 5 *)
  drop_probability : float;  (** applied to [Data] only *)
  duplicate_probability : float;  (** applied to [Data] only *)
}

val default_config : n:int -> config
(** Reordering network, uniform latency in [1, 10], no loss, no
    duplication. *)

type 'a envelope = {
  src : int;
  dst : int;
  sent_at : Optimist_sim.Engine.time;
  traffic : traffic;
  payload : 'a;
}

val create : Optimist_sim.Engine.t -> config -> 'a t

val set_handler : 'a t -> int -> ('a envelope -> unit) -> unit
(** Install the delivery callback for endpoint [id]. Must be set before the
    first delivery to that endpoint. *)

val send : 'a t -> ?traffic:traffic -> src:int -> dst:int -> 'a -> unit
(** Enqueue one message (default [Data]). [src = dst] loopback is allowed
    and goes through the same latency model. *)

val broadcast : 'a t -> ?traffic:traffic -> src:int -> 'a -> unit
(** Send to every endpoint except [src]. *)

(** {2 Partitions} *)

val partition : 'a t -> int list list -> unit
(** [partition t groups] blocks communication between endpoints in
    different groups. Endpoints absent from every group form an implicit
    final group. In-flight messages already scheduled still arrive (they
    were on the wire). *)

val heal : 'a t -> unit
(** Remove the partition and release queued [Control] (and partition-held
    [Data]) traffic with fresh latencies. *)

val reachable : 'a t -> int -> int -> bool

(** {2 Failure gating}

    A crashed process must not receive anything. The protocol layer marks
    endpoints down; messages addressed to a down endpoint are *held* and
    re-offered when the endpoint comes back up — modelling messages that sit
    in the OS receive buffer across a crash being lost, while tokens and
    later traffic reach the restarted incarnation. Whether held [Data]
    messages survive the crash is the caller's choice via [drop_held]. *)

val set_down : 'a t -> int -> unit

val set_up : 'a t -> ?drop_held_data:bool -> int -> unit
(** Bring an endpoint back. Held [Control] messages are always delivered;
    held [Data] messages are dropped when [drop_held_data] (default
    [false]), otherwise delivered with fresh latency. *)

(** {2 Introspection} *)

val config : 'a t -> config

val stats : 'a t -> Optimist_util.Stats.Counters.t
(** Counters: [sent.data], [sent.control], [delivered.data],
    [delivered.control], [dropped.data], [duplicated.data],
    [held.partition], [held.down]. *)
