(** The multi-host fabric: a TCP mesh under {!Optimist_live.Link}.

    Worker [i] listens on [endpoints.(i)] and keeps one outbound stream
    connection per peer (directed: acks and pongs return on the peer's
    own outbound connection; every frame carries its source pid, so
    inbound streams need no handshake). Connections are established
    non-blockingly and rebuilt after loss with capped exponential
    backoff. While a connection is down, writes to it are [Gone]; while
    more than 4 MiB wait unflushed on it, they are [Busy]. To the lanes
    either is the same as a refused datagram.

    Wire: a 4-byte big-endian length, then the body — one batch of
    marshalled {!Optimist_live.Link.frame}s (exactly a Livenet datagram)
    or a 13-byte heartbeat (tag byte 1 for a ping or 2 for a pong, int32
    source pid, float64 send time). Heartbeats are written at once, never
    batched. Pings flow every 0.25 s on each live connection
    and double as a failure detector: a peer silent for 3 s has its
    connection torn and rebuilt. Pongs feed an RTT histogram.

    Besides the lane counters, [Link.stats] carries the stream counters
    that have moved: [bytes_sent], [bytes_received], [frames_sent],
    [frames_received] (these two count length-prefixed bodies: batches
    and heartbeats), [connects], [reconnects], [accepted],
    [hb_timeouts]; [Link.snapshot] adds [link.hb_rtt_ms.count/p50/p95]. *)

module Link = Optimist_live.Link

val factory : endpoints:(string * int) array -> Link.factory
(** The TCP mesh over [endpoints] (worker pid -> host, port): binds and
    listens on the worker's own endpoint (SO_REUSEADDR) and starts
    connecting to every peer. Its [ready] pumps the loop until every
    outbound connection is up. Raises [Invalid_argument] unless there is
    one endpoint per worker. *)
