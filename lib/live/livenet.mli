(** The single-host fabric: a mesh of Unix-domain datagram sockets.

    Worker [i] binds [DIR/wi.sock]; each batch of lane frames
    ({!Link.frame}) is one datagram, sent straight to the peer's
    address, so there is no
    connection state to tear down when a peer is SIGKILL-ed — a send to
    it just fails until its successor binds the path again. Lane
    semantics are {!Link}'s. *)

type 'a t = 'a Link.t

val create :
  ?jitter:float * float ->
  ?retransmit_every:float ->
  ?seq_base:int ->
  ?faults:Link.faults ->
  loop:Loop.t ->
  dir:string ->
  me:int ->
  n:int ->
  seed:int64 ->
  unit ->
  'a t
(** {!Link.create} over {!factory}: binds [DIR/w<me>.sock] (unlinking
    any stale file) and registers the receive pump on [loop]. *)

val factory : dir:string -> Link.factory
(** The UDS mesh under [dir]. Its [ready] waits for every peer's socket
    file to exist. A write to a live peer whose receive queue is full
    ([EAGAIN], [EWOULDBLOCK], [ENOBUFS]) is [Busy]; one to a dead or
    unborn peer ([ECONNREFUSED], [ENOENT]) is [Gone]. It adds no counters
    of its own. Every endpoint of an OS process shares one receive
    buffer. Raises [Invalid_argument] when {!check_dir} fails. *)

val sock_path : string -> int -> string
(** [sock_path dir i] is worker [i]'s socket path. *)

val check_dir : dir:string -> n:int -> (unit, string) result
(** One-line error if any of the [n] socket paths under [dir] would
    overflow [sun_path]. Callers with a CLI surface should check first
    and report cleanly. *)

val transport : 'a t -> 'a Link.Transport.t
val unacked_count : 'a t -> int
val stats : 'a t -> (string * int) list
val close : 'a t -> unit
(** {!Link.transport}, {!Link.unacked_count}, {!Link.stats} and
    {!Link.close}. Closing leaves the socket path for a successor
    incarnation to rebind. *)
