(** The live channel: the two lanes of {!Optimist_core.Transport.lane}
    over a pluggable fabric.

    This module owns every lane semantic, for every fabric:

    - {b Data} — fire-and-forget. A send may be dropped ([drop_rate]);
      otherwise its write is delayed by a seeded jitter, so back-to-back
      sends genuinely reorder, and it may be written twice
      ([dup_rate]). A write to a dead or unborn peer fails — a real
      in-flight loss. With zero jitter the frame is queued for the wire
      in the send call, so send order is wire order: the lane is FIFO.
    - {b Control} — reliable. Frames carry a sequence number, are kept
      until acknowledged, and are retransmitted periodically; receivers
      ack every copy and deliver the first ([(src, seq)] dedup). A
      control frame sent to a crashed peer therefore reaches its next
      incarnation. At most 8 frames are in flight to one destination;
      later ones wait in send order and are written as acks free the
      window, so a burst cannot overflow a peer's receive queue.
    - the {b partition gate}, below every frame, at the moment the frame
      is queued.
    - {b batching}. A frame that passes the gate joins its destination's
      pending frames. At each seam of the {!Loop} ({!Loop.on_seam}) the
      link writes every destination's pending frames as one body: the
      marshalled frames back to back, in send order. Marshalled values
      carry their own size, so a batch needs no header. A destination
      whose pending frames reach 16 KiB is written at once, and {!close}
      writes what is pending. Acks stay one frame per received Control
      frame; they are batched like any other frame.
    - the wire counters, and the per-incarnation seed and sequence base.

    A {!fabric} only moves encoded frames between workers: {!Livenet}
    (single-host Unix-domain datagrams) and the cluster's TCP mesh. The
    transport's [set_down]/[set_up] are no-ops: crashes are real process
    deaths here. *)

module Transport = Optimist_core.Transport

type partition = { pt_start : float; pt_stop : float; pt_island : int list }
(** A burst partition: during [pt_start, pt_stop) (loop time), frames
    crossing the island boundary — in either direction — are blocked at
    the gate. Control frames heal through retransmission once the window
    closes; Data frames are real losses. *)

type faults = {
  drop_rate : float;  (** Bernoulli loss per Data send *)
  dup_rate : float;  (** Bernoulli duplicate per Data send *)
  partitions : partition list;
}
(** Seeded network-fault plan, decided deterministically from the
    link's PRNG at send time. *)

val no_faults : faults

(** One lane frame, marshalled. A fabric moves batches of them: a
    Livenet datagram, or a TCP body, is one or more marshalled frames
    back to back. *)
type 'a frame =
  | Data_msg of { src : int; payload : 'a }
  | Ctl_msg of { src : int; seq : int; payload : 'a }
  | Ctl_ack of { seq : int }

(** What the lanes hand a fabric. *)
type port = {
  deliver : Bytes.t -> int -> int -> unit;
      (** [deliver buf off len]: one received batch. Unless the sizes of
          its marshalled frames tile [len] bytes exactly, it is rejected
          whole: counted once as [rejected], no frame dispatched. Then
          each frame that does not decode as a {!frame} with a source in
          [\[0, n)] is counted as [rejected] and dropped. *)
  send : dst:int -> Bytes.t -> unit;
      (** write a fabric-level frame (TCP heartbeats) at once, unbatched,
          through the same partition gate and error accounting as the
          lanes *)
  reject : unit -> unit;  (** count a malformed fabric-level frame *)
}

(** What became of one fabric write. [Busy]: the peer is alive but
    cannot take it now (a full datagram queue, a clogged TCP buffer).
    [Gone]: the peer is dead, unborn or unreachable. Either way the
    bytes are lost. *)
type write_result = Sent | Busy | Gone

(** A byte mover: one worker's end of a fabric. *)
type fabric = {
  write : dst:int -> Bytes.t -> int -> write_result;
      (** [write ~dst buf len]: move [buf.[0, len)], one batch, to [dst].
          The fabric must be done with [buf] when it returns: the link
          reuses it. *)
  ready : timeout:float -> bool;
      (** block until every peer is reachable; [false] on timeout. The
          gen-0 startup barrier. *)
  stats : unit -> (string * int) list;  (** fabric-specific counters *)
  snapshot : unit -> (string * float) list;
      (** fabric-specific metrics, unprefixed (counters and, for TCP,
          heartbeat RTT quantiles) *)
  close : unit -> unit;
}

type factory = loop:Loop.t -> me:int -> n:int -> port -> fabric
(** Build worker [me]'s end of a fabric among [n] workers. *)

type 'a t

val create :
  ?jitter:float * float ->
  ?retransmit_every:float ->
  ?seq_base:int ->
  ?faults:faults ->
  ?before_write:(unit -> unit) ->
  loop:Loop.t ->
  me:int ->
  n:int ->
  seed:int64 ->
  factory ->
  'a t
(** Attach the fabric, register the batch writer on [loop]'s seams and
    start the retransmit timer (default every 0.1 s). [jitter] is the
    (min, max) Data-lane send delay in seconds (default 1–20 ms).
    [(0.0, 0.0)] means no delay: each Data frame is queued in its send
    call, with no timer and no jitter draw, so the lane is FIFO. [seed]
    seeds the fault and jitter draws; [seq_base] is the first control
    sequence number minus one. [before_write] runs before any batch is
    written, forced writes and {!close} included (the worker flushes its
    trace there, so a [Send] is on disk before its frame is on the
    wire). *)

val incarnation :
  ?jitter:float * float ->
  ?before_write:(unit -> unit) ->
  factory ->
  loop:Loop.t ->
  me:int ->
  gen:int ->
  n:int ->
  seed:int64 ->
  faults:faults ->
  'a t
(** {!create} for incarnation [gen] of worker [me] in a run seeded with
    [seed]: the PRNG seed is [seed + 1 + me + gen*n] and the sequence
    base [gen * 1_000_000], so a restarted worker's control frames are
    never taken for retransmits of its predecessor's. *)

val transport : 'a t -> 'a Transport.t
val ready : 'a t -> timeout:float -> bool

val unacked_count : 'a t -> int
(** Control frames not yet acknowledged, in flight or waiting for the
    window. *)

val stats : 'a t -> (string * int) list
(** The lane counters, always all present: [sent_data], [sent_control],
    [batches_sent], [retransmits], [ctl_queued], [received],
    [send_errors], [send_busy], [faults_dropped], [faults_duplicated],
    [partition_blocked], [rejected]; then the fabric's own.
    [batches_sent] counts successful fabric writes of lane frames.
    [send_errors] counts frames lost to failed writes, a failed batch
    adding every frame it held; [send_busy] counts those of them whose
    write came back [Busy], so [send_errors - send_busy] is the frames
    lost to dead or unborn peers. [ctl_queued] counts Control frames
    that waited for the window: they are sent later, not lost, so they
    are no [send_errors]. *)

val snapshot : 'a t -> (string * float) list
(** The lane counters and the fabric's metrics as ["link."]-prefixed
    floats, for the worker's [Snapshot] telemetry records. *)

val close : 'a t -> unit
(** Write the pending frames, stop the timers and close the fabric. *)
