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

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network

type 'm wire

type ('s, 'm) t

type config = {
  checkpoint_interval : float;
  flush_interval : float;
  restart_delay : float;
}

val default_config : config

val create :
  engine:Engine.t ->
  net:'m wire Network.t ->
  app:('s, 'm) Optimist_core.Types.app ->
  id:int ->
  n:int ->
  ?config:config ->
  ?metrics:Optimist_obs.Metrics.Scope.t ->
  next_uid:(unit -> int) ->
  unit ->
  ('s, 'm) t

val id : ('s, 'm) t -> int
val alive : ('s, 'm) t -> bool
val blocked : ('s, 'm) t -> bool
val state : ('s, 'm) t -> 's
val inject : ('s, 'm) t -> 'm -> unit
val fail : ('s, 'm) t -> unit
val metrics : ('s, 'm) t -> Optimist_obs.Metrics.Scope.t
(** The per-process metrics scope (labelled with this protocol's
    name); shares counter names with the core engine where the
    concepts coincide. *)

val counters : ('s, 'm) t -> (string * int) list

val check_rules : string list
(** Trace-sanitizer rule ids (see [optimist.check]) that are meaningful
    for this baseline; [Runner.check_rules] consults this under
    [recsim run --check]. *)
