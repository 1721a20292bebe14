(** Coordinated (consistent) checkpointing, Koo-Toueg style [13] — the
    approach the paper's introduction argues against: "different processes
    synchronize their checkpointing actions … For large systems, the cost
    of this synchronization is prohibitive. Furthermore, these protocols
    may not restore the maximum recoverable state."

    An initiator runs a two-phase round: request → every process takes a
    tentative checkpoint and {e blocks} (no sends, deliveries buffered so no
    message crosses the line) → ready from all → commit. On any failure the
    whole system rolls back to the last committed line: everything since is
    lost (no message logging), and every process rolls back for every
    failure.

    Measured costs reproduced: [blocked_time_x1000] grows with both the
    round frequency and n (the slowest straggler gates the commit);
    [control_messages] = 3(n−1) per round; [lost_states] counts the work a
    failure forfeits; [rollbacks] = n−1 peers per failure.

    Stable storage ({!Optimist_core.Protocol.store}): each committed
    snapshot (its round as the checkpoint position), the rollback epoch,
    peer epochs and round counter in the token slot, and the worker
    generation in the gen slot. [recover] restores the committed line and
    broadcasts the rollback token that drags every peer back to it; the
    initiator's round loop resumes past the persisted round. *)

type 'm wire
type ('s, 'm) t
type config = { checkpoint_interval : float; restart_delay : float }

val default_config : config

include
  Optimist_core.Protocol.BASELINE
    with type ('s, 'm) t := ('s, 'm) t
     and type 'm wire := 'm wire
     and type config := config
