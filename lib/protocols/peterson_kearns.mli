(** Peterson-Kearns-style synchronous rollback based on vector time — the
    [19] row of the paper's Table 1.

    Optimistic receiver logging with a plain Mattern vector clock (no
    incarnation numbers). After a failure the restarting process restores
    checkpoint + stable log, then broadcasts a recovery token carrying the
    restored vector time and {e blocks} until every peer acknowledges:
    recovery is synchronous (Table 1 "Asynchronous recovery: No"). Peers
    holding states that depend on the lost interval roll back (at most once)
    before acknowledging; application messages arriving at the recovering
    process are buffered until the token round completes, and the stall is
    accumulated in [blocked_time_x1000].

    Without incarnation numbers the protocol cannot tell states of the
    failed process's new life from lost states of the old one: it handles a
    {e single} failure (Table 1 "Number of concurrent failures allowed: 1").
    A second failure while any recovery is in flight — or a later failure
    whose timestamps overlap a recovered interval — can produce undetected
    orphans; the [unsupported_overlap] counter reports when the
    implementation detects that its assumption was violated. *)

type 'm wire

type ('s, 'm) t

type config = {
  checkpoint_interval : float;
  flush_interval : float;
  restart_delay : float;
}

val default_config : config

include
  Optimist_core.Protocol.SIM
    with type ('s, 'm) t := ('s, 'm) t
     and type 'm wire := 'm wire
     and type config := config

val id : ('s, 'm) t -> int
val blocked : ('s, 'm) t -> bool
val metrics : ('s, 'm) t -> Optimist_obs.Metrics.Scope.t
(** The per-process metrics scope (labelled with this protocol's
    name); shares counter names with the core engine where the
    concepts coincide. *)
