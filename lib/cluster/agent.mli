(** Cluster agent: hosts a block of live workers on this machine on
    behalf of a remote coordinator ([recsim cluster agent]).

    The agent listens on a control port and executes the coordinator's
    {!Proto} exchange: receive the run plan, supervise its pid block
    over the TCP mesh (forking workers, delivering the scheduled
    SIGKILLs that fall on its pids, respawning from stable storage),
    then stream the run artifacts — per-incarnation traces, stats files
    and stores — back for merging. *)

val serve : ?quiet:bool -> ?once:bool -> dir:string -> port:int -> unit -> unit
(** Serve coordinator connections forever (or one connection when
    [once], for in-process forked agents). [dir] is the agent's local
    run directory, cleared at each new plan. Blocks. *)
