(** Pessimistic receiver-based message logging — the [3, 20] row of the
    paper's Table 1 (Borg-Baumbach-Glazer; Powell-Presotto).

    Every delivered message is written to stable storage {e synchronously}
    before the application processes it, so a crash never loses a delivered
    message: recovery is purely local (restore last checkpoint, replay the
    log) and no other process ever rolls back. The price is paid on every
    delivery during failure-free operation — modelled here as a stable-write
    latency that delays processing and is accumulated in the
    [blocked_time] counter. No clock is piggybacked (an O(1) header).

    Table 1 expectations this implementation reproduces: message ordering
    [None], asynchronous recovery (trivially — nobody is asked anything),
    rollbacks per failure [0] for peers, timestamps [O(1)], concurrent
    failures [n].

    Counters: [delivered], [sent], [restarts], [replayed],
    [piggyback_words], [blocked_time_x1000] (accumulated synchronous-write
    delay), plus the names shared with the comparison table.

    Stable storage ({!Optimist_core.Protocol.store}): every log entry
    before its handler runs, the checkpoints, and the epoch in the gen
    slot. [recover] restores the latest checkpoint, replays the stable
    log, advances the epoch and re-checkpoints. *)

type 'm wire
type ('s, 'm) t

type config = {
  sync_write_latency : float;
      (** stable-storage latency charged to every delivery *)
  checkpoint_interval : float;
  restart_delay : float;
  ack_before_fsync : bool;
      (** the registry's [ack-before-fsync] mutant: run the handler
          before the log entry is stable (OPT013 catches it) *)
}

val default_config : config

include
  Optimist_core.Protocol.BASELINE
    with type ('s, 'm) t := ('s, 'm) t
     and type 'm wire := 'm wire
     and type config := config
