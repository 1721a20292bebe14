module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Vclock = Optimist_clock.Vclock
module Ftvc = Optimist_clock.Ftvc
module Message_log = Optimist_storage.Message_log
module Checkpoint_store = Optimist_storage.Checkpoint_store
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
open Optimist_core.Types

type announcement = { a_origin : int; a_ts : int; a_round : int }

type 'm wire =
  | W_app of { data : 'm; vc : Vclock.t; sender : int; uid : int }
  | W_token of announcement
  | W_ack of { round : int }
  | W_resume of { round : int }

type 'm entry_log =
  | E_msg of { data : 'm; vc : Vclock.t; sender : int }
  | E_mark of int  (* own component after a rollback bump *)

type ('s, 'm) checkpoint = { cp_state : 's; cp_vc : Vclock.t }

type config = {
  checkpoint_interval : float;
  flush_interval : float;
  restart_delay : float;
}

let default_config =
  { checkpoint_interval = 200.0; flush_interval = 25.0; restart_delay = 20.0 }

type ('s, 'm) t = {
  pid : int;
  n : int;
  engine : Engine.t;
  net : 'm wire Network.t;
  app : ('s, 'm) app;
  config : config;
  next_uid : unit -> int;
  mutable state : 's;
  mutable vc : Vclock.t;
  mutable alive : bool;
  mutable replaying : bool;
  log : 'm entry_log Message_log.t;
  checkpoints : ('s, 'm) checkpoint Checkpoint_store.t;
  (* My own in-flight recovery round, if any. *)
  mutable awaiting_acks : int;
  mutable my_round : int;
  mutable round_counter : int;
  mutable blocked_since : float option;
  mutable buffered : (int * 'm * Vclock.t) list; (* src, data, vc; newest first *)
  (* Active recovery announcements by other processes: obsolete filter. *)
  mutable active : announcement list;
  metrics : Metrics.Scope.t;
}

let id t = t.pid
let alive t = t.alive
let blocked t = t.awaiting_acks > 0
let state t = t.state
let metrics t = t.metrics
let counters t = Metrics.Scope.counters t.metrics

let tr_on t = Trace.enabled (Engine.tracer t.engine)

(* The vector clock maps onto the trace's FTVC shape with ver = 0 per
   entry; the event's [ver] field carries the recovery-round counter. *)
let tr_clock vc =
  Array.of_list (List.map (fun ts -> { Ftvc.ver = 0; ts }) (Vclock.to_list vc))

let tr_emit ?clock t kind =
  let clock = match clock with Some c -> c | None -> tr_clock t.vc in
  Trace.emit (Engine.tracer t.engine)
    {
      at = Engine.now t.engine;
      pid = t.pid;
      ver = t.round_counter;
      clock;
      kind;
    }

let flush_now t =
  let before = Message_log.stable_length t.log in
  Message_log.flush t.log;
  let stable = Message_log.stable_length t.log in
  if stable > before && tr_on t then tr_emit t (Trace.Log_flush { stable })

let take_checkpoint t =
  flush_now t;
  Metrics.Scope.incr t.metrics "checkpoints";
  if tr_on t then
    tr_emit t (Trace.Checkpoint { position = Message_log.total_length t.log });
  Checkpoint_store.record t.checkpoints
    ~position:(Message_log.total_length t.log)
    { cp_state = t.state; cp_vc = t.vc }

let send_app t dst data =
  if t.replaying then t.vc <- Vclock.tick t.vc ~me:t.pid
  else begin
    Metrics.Scope.incr t.metrics "sent";
    Metrics.Scope.incr ~by:t.n t.metrics "piggyback_words";
    let uid = t.next_uid () in
    if tr_on t then tr_emit t (Trace.Send { uid; dst });
    Network.send t.net ~src:t.pid ~dst
      (W_app { data; vc = t.vc; sender = t.pid; uid });
    t.vc <- Vclock.tick t.vc ~me:t.pid
  end

let run_app t ~src data =
  let state', sends = t.app.on_message ~me:t.pid ~src t.state data in
  t.state <- state';
  List.iter (fun (dst, payload) -> send_app t dst payload) sends

let deliver_now t ?(uid = -1) ~src ~vc data =
  Message_log.append t.log (E_msg { data; vc; sender = src });
  t.vc <- Vclock.merge t.vc ~me:t.pid vc;
  Metrics.Scope.incr t.metrics (if src = env_src then "injected" else "delivered");
  if tr_on t then tr_emit t (Trace.Deliver { uid; src });
  run_app t ~src data

let replay_entry t e =
  Metrics.Scope.incr t.metrics "replayed";
  match e with
  | E_msg { data; vc; sender } ->
      t.vc <- Vclock.merge t.vc ~me:t.pid vc;
      run_app t ~src:sender data
  | E_mark own ->
      let l = Vclock.to_list t.vc in
      t.vc <- Vclock.of_list (List.mapi (fun i x -> if i = t.pid then own else x) l)

(* Restore the latest state whose knowledge of [origin] is within the
   surviving prefix [<= ts]. *)
let restore t ~origin ~ts =
  match
    Checkpoint_store.latest_satisfying t.checkpoints (fun cp _ ->
        Vclock.get cp.cp_vc origin <= ts)
  with
  | None -> assert false
  | Some (cp, position) ->
      t.state <- cp.cp_state;
      t.vc <- cp.cp_vc;
      let stable = Message_log.stable_length t.log in
      t.replaying <- true;
      let rec replay pos =
        if pos < stable then
          let e = Message_log.get t.log pos in
          let ok =
            match e with
            | E_mark _ -> true
            | E_msg { vc; _ } -> Vclock.get vc origin <= ts
          in
          if ok then begin
            replay_entry t e;
            replay (pos + 1)
          end
          else pos
        else pos
      in
      let stop = replay position in
      t.replaying <- false;
      if stop < Message_log.total_length t.log then begin
        Metrics.Scope.incr
          ~by:(Message_log.total_length t.log - stop)
          t.metrics "log_truncated";
        Message_log.truncate t.log stop;
        Checkpoint_store.discard_after t.checkpoints ~position:stop
      end

let rollback t ~origin ~ts =
  Metrics.Scope.incr t.metrics "rollbacks";
  flush_now t;
  let truncated_before = Metrics.Scope.get t.metrics "log_truncated" in
  restore t ~origin ~ts;
  if tr_on t then
    tr_emit t
      (Trace.Rollback
         {
           discarded =
             Metrics.Scope.get t.metrics "log_truncated" - truncated_before;
         });
  t.vc <- Vclock.tick t.vc ~me:t.pid;
  Message_log.append t.log (E_mark (Vclock.get t.vc t.pid));
  flush_now t

let message_obsolete t (vc : Vclock.t) =
  List.exists (fun a -> Vclock.get vc a.a_origin > a.a_ts) t.active

let receive_app t ?(uid = -1) ~src ~vc data =
  if t.awaiting_acks > 0 then
    (* Synchronous recovery: block application traffic until the round
       completes. *)
    t.buffered <- (src, data, vc) :: t.buffered
  else if message_obsolete t vc then begin
    Metrics.Scope.incr t.metrics "discarded_obsolete";
    if tr_on t then tr_emit ~clock:(tr_clock vc) t (Trace.Drop_obsolete { uid; src })
  end
  else deliver_now t ~uid ~src ~vc data

let inject t data =
  if t.alive then
    if t.awaiting_acks > 0 then
      t.buffered <- (env_src, data, Vclock.of_list (List.init t.n (fun _ -> 0))) :: t.buffered
    else deliver_now t ~src:env_src ~vc:(Vclock.of_list (List.init t.n (fun _ -> 0))) data

let finish_round t =
  (match t.blocked_since with
  | Some since ->
      Metrics.Scope.incr
        ~by:(int_of_float (1000.0 *. (Engine.now t.engine -. since)))
        t.metrics "blocked_time_x1000";
      t.blocked_since <- None
  | None -> ());
  t.awaiting_acks <- 0;
  Metrics.Scope.incr ~by:(t.n - 1) t.metrics "control_messages";
  Network.broadcast t.net ~traffic:Network.Control ~src:t.pid
    (W_resume { round = t.my_round });
  let pending = List.rev t.buffered in
  t.buffered <- [];
  List.iter (fun (src, data, vc) -> receive_app t ~src ~vc data) pending

let do_restart t =
  Metrics.Scope.incr t.metrics "restarts";
  if t.active <> [] then Metrics.Scope.incr t.metrics "unsupported_overlap";
  (* Restore checkpoint + full stable log: the maximum locally recoverable
     state. *)
  (match Checkpoint_store.latest t.checkpoints with
  | None -> assert false
  | Some (cp, position) ->
      t.state <- cp.cp_state;
      t.vc <- cp.cp_vc;
      t.replaying <- true;
      Message_log.iter_range t.log ~from:position
        ~until:(Message_log.stable_length t.log) (fun e -> replay_entry t e);
      t.replaying <- false;
      Message_log.truncate t.log (Message_log.stable_length t.log));
  t.alive <- true;
  Network.set_up t.net t.pid;
  t.round_counter <- t.round_counter + 1;
  t.my_round <- t.round_counter;
  t.awaiting_acks <- t.n - 1;
  if tr_on t then tr_emit t (Trace.Restart { new_ver = t.round_counter });
  t.blocked_since <- Some (Engine.now t.engine);
  Metrics.Scope.incr ~by:(t.n - 1) t.metrics "control_messages";
  if tr_on t then
    tr_emit t
      (Trace.Token_sent
         { origin = t.pid; ver = t.my_round; ts = Vclock.get t.vc t.pid });
  Network.broadcast t.net ~traffic:Network.Control ~src:t.pid
    (W_token
       { a_origin = t.pid; a_ts = Vclock.get t.vc t.pid; a_round = t.my_round });
  t.vc <- Vclock.tick t.vc ~me:t.pid;
  take_checkpoint t

let fail t =
  if t.alive then begin
    t.alive <- false;
    if tr_on t then tr_emit t Trace.Failure;
    Metrics.Scope.incr t.metrics "failures";
    Message_log.crash t.log;
    t.buffered <- [];
    t.awaiting_acks <- 0;
    t.blocked_since <- None;
    Network.set_down t.net t.pid;
    ignore
      (Engine.schedule t.engine ~delay:t.config.restart_delay (fun () ->
           do_restart t))
  end

let receive_token t (a : announcement) =
  Metrics.Scope.incr t.metrics "tokens_received";
  if tr_on t then
    tr_emit t
      (Trace.Token_recv { origin = a.a_origin; ver = a.a_round; ts = a.a_ts });
  t.active <- a :: t.active;
  if Vclock.get t.vc a.a_origin > a.a_ts then begin
    if tr_on t then
      tr_emit t
        (Trace.Orphan_detected
           { origin = a.a_origin; ver = a.a_round; ts = a.a_ts });
    rollback t ~origin:a.a_origin ~ts:a.a_ts
  end;
  Metrics.Scope.incr t.metrics "control_messages";
  Network.send t.net ~traffic:Network.Control ~src:t.pid ~dst:a.a_origin
    (W_ack { round = a.a_round })

let handle_wire t (env : 'm wire Network.envelope) =
  match env.Network.payload with
  | W_app { data; vc; sender; uid } -> receive_app t ~uid ~src:sender ~vc data
  | W_token a -> receive_token t a
  | W_ack { round } ->
      if round = t.my_round && t.awaiting_acks > 0 then begin
        t.awaiting_acks <- t.awaiting_acks - 1;
        if t.awaiting_acks = 0 then finish_round t
      end
  | W_resume { round } ->
      t.active <- List.filter (fun a -> a.a_round <> round) t.active

let create ~engine ~net ~app ~id:pid ~n ?(config = default_config) ?tracer:_
    ?metrics ~next_uid () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.Scope.create ~protocol:"peterson-kearns" ~process:pid ()
  in
  let t =
    {
      pid;
      n;
      engine;
      net;
      app;
      config;
      next_uid;
      state = app.init pid;
      vc = Vclock.create ~n ~me:pid;
      alive = true;
      replaying = false;
      log = Message_log.create ();
      checkpoints = Checkpoint_store.create ();
      awaiting_acks = 0;
      my_round = -1;
      round_counter = 0;
      blocked_since = None;
      buffered = [];
      active = [];
      metrics;
    }
  in
  Network.set_handler net pid (fun env -> handle_wire t env);
  take_checkpoint t;
  let rec flush_loop () =
    if t.alive then flush_now t;
    ignore
      (Engine.schedule engine ~daemon:true ~delay:config.flush_interval flush_loop)
  in
  let rec checkpoint_loop () =
    if t.alive && t.awaiting_acks = 0 then take_checkpoint t;
    ignore
      (Engine.schedule engine ~daemon:true ~delay:config.checkpoint_interval
         checkpoint_loop)
  in
  ignore
    (Engine.schedule engine ~daemon:true ~delay:config.flush_interval flush_loop);
  ignore
    (Engine.schedule engine ~daemon:true ~delay:config.checkpoint_interval
       checkpoint_loop);
  t

(* Trace-sanitizer rules (optimist.check ids): Deliver events stamp the
   receiver's merged clock rather than the sender's piggyback, so
   piggyback-integrity does not apply; the vector-clock rules (rendered
   as version-0 FTVC entries) do. *)
let check_rules =
  [ "OPT001"; "OPT002"; "OPT003"; "OPT005"; "OPT006"; "OPT007"; "OPT013" ]

(* A plain vector clock: no incarnation numbers. *)
let incarnation _ = None
