(** Strom-Yemini-style optimistic recovery — the [27] row of the paper's
    Table 1.

    Like Damani-Garg this logs messages asynchronously at the receiver,
    piggybacks an O(n) dependency vector with incarnation numbers, and
    broadcasts a recovery announcement on failure. The differences captured
    here are exactly what the paper criticises:

    - {b No history mechanism}: a process only knows the single
      (incarnation, timestamp) entry per peer in its current dependency
      vector. When an entry is overwritten by a later incarnation before
      the announcement that ended the earlier one arrives (possible even on
      FIFO channels, through a third process), the dependency information
      on the dead incarnation is {e lost}. On receiving the late
      announcement the process must {e conservatively roll back past the
      blind incarnation jump} — rollbacks Damani-Garg provably avoids
      (the paper's "minimal rollback" property). The [conservative_rollbacks]
      counter and the oracle's needless-rollback statistic measure this.
    - {b No deliverability rule}: messages referencing unknown incarnations
      are accepted optimistically, which is what creates the blind jumps.
    - {b FIFO assumed}: the original protocol requires FIFO channels;
      running this implementation on a reordering network exercises that
      assumption.

    The announcement table (this implementation keeps received
    announcements stably, like D-G tokens) still allows exact obsolete-
    message discarding, so runs remain consistent — just with more and
    deeper rollbacks than Damani-Garg on the same schedule.

    Counters: the shared names plus [blind_jumps] and
    [conservative_rollbacks].

    Stable storage ({!Optimist_core.Protocol.store}): the flushed log
    prefix, the checkpoints, the announcement table (rewritten whole in
    the token slot) and the worker generation in the gen slot. [recover]
    restores from the stable log first, so the failure record carries the
    incarnation the crash killed, then announces and steps to the next
    incarnation. *)

type 'm wire
type ('s, 'm) t

type config = {
  checkpoint_interval : float;
  flush_interval : float;
  restart_delay : float;
}

val default_config : config

include
  Optimist_core.Protocol.BASELINE
    with type ('s, 'm) t := ('s, 'm) t
     and type 'm wire := 'm wire
     and type config := config
