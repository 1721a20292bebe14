(** Uncoordinated checkpointing {e without} message logging — the classic
    domino-effect baseline (Randell [21], Russell [22]) that motivates the
    whole message-logging line of work in the paper's introduction.

    Processes checkpoint independently and keep no message log, so a
    rollback can only land {e on a checkpoint}: everything since is simply
    lost. Because a rollback discards states that other processes may
    depend on, each rollback broadcasts its own announcement, which can
    force further rollbacks elsewhere — the cascade ("domino effect") can
    collapse the whole computation back to its initial checkpoints. The
    [rollbacks] counter divided by [failures] is the quantity the paper's
    "minimal rollback" property bounds at 1 for Damani-Garg and that is
    unbounded here.

    Each incarnation (restart or rollback) bumps an epoch number carried on
    every message so stale in-flight traffic from discarded states is
    filtered out.

    Stable storage ({!Optimist_core.Protocol.store}): the checkpoints, the
    epoch, announcement floors and peer epochs in the token slot, and the
    worker generation in the gen slot. [recover] lands on the newest
    checkpoint consistent with the persisted floors and announces the
    surviving timestamp so peers can domino. *)

type 'm wire
type ('s, 'm) t
type config = { checkpoint_interval : float; restart_delay : float }

val default_config : config

include
  Optimist_core.Protocol.BASELINE
    with type ('s, 'm) t := ('s, 'm) t
     and type 'm wire := 'm wire
     and type config := config
