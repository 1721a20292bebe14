(** Sender-based message logging — the Johnson-Zwaenepoel [11] row of the
    paper's Table 1.

    Each message is logged in the {e sender's} volatile memory. The receiver
    assigns a receive sequence number (RSN) on delivery and returns it in an
    acknowledgement; the sender records the RSN and confirms. A process may
    deliver optimistically, but it must not {e send} while any of its own
    deliveries is still unconfirmed — this send-blocking is the protocol's
    failure-free cost, accumulated in [blocked_time_x1000] along with
    recovery stalls.

    Recovery is {e not} asynchronous: the restarting process broadcasts a
    retransmission request and must wait for every peer to respond before it
    can make progress. Peers never roll back. Messages whose sender also
    crashed (volatile send log lost) are unrecoverable and counted in
    [unrecoverable].

    Table 1 expectations reproduced: ordering [None], asynchronous recovery
    [No], rollbacks per failure [1] (only the failed process), timestamps
    [O(1)].

    Stable storage ({!Optimist_core.Protocol.store}): the checkpoints and
    the epoch in the gen slot; the send log stays volatile, which is the
    protocol's defining trade-off. [recover] restores the latest
    checkpoint and broadcasts the retransmission request. *)

type 'm wire
type ('s, 'm) t
type config = { checkpoint_interval : float; restart_delay : float }

val default_config : config

include
  Optimist_core.Protocol.BASELINE
    with type ('s, 'm) t := ('s, 'm) t
     and type 'm wire := 'm wire
     and type config := config
