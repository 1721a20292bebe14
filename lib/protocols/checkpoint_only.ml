module Protocol = Optimist_core.Protocol
module Transport = Optimist_core.Transport
module Vclock = Optimist_clock.Vclock
module Ftvc = Optimist_clock.Ftvc
module Checkpoint_store = Optimist_storage.Checkpoint_store
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
open Optimist_core.Types

type announcement = {
  a_origin : int;
  a_ts : int; (* surviving own timestamp: states past it are gone *)
  a_cascade : bool; (* true when caused by a rollback, not a failure *)
}

type 'm wire =
  | W_app of { data : 'm; vc : Vclock.t; epoch : int; sender : int; uid : int }
  | W_ann of announcement

type ('s, 'm) checkpoint = { cp_state : 's; cp_vc : Vclock.t }

type config = { checkpoint_interval : float; restart_delay : float }

let default_config = { checkpoint_interval = 100.0; restart_delay = 20.0 }

(* Live timer settings: seconds, not the simulator's virtual units. *)
let live_config = { checkpoint_interval = 1.0; restart_delay = 0.3 }

(* Durable state beyond the checkpoints themselves, in the store's token
   slot: the epoch counter and the announcement floors must survive a
   crash, or a restarted process would accept dependencies on states the
   whole system already agreed are forfeit. *)
type aux = {
  ax_epoch : int;
  ax_floor : int array;
  ax_peer_epoch : int array;
}

type ('s, 'm) t = {
  pid : int;
  n : int;
  rt : Transport.runtime;
  net : 'm wire Transport.t;
  app : ('s, 'm) app;
  config : config;
  store : Protocol.store;
  next_uid : unit -> int;
  mutable state : 's;
  mutable vc : Vclock.t;
  mutable alive : bool;
  mutable epoch : int; (* bumped on every restart or rollback *)
  mutable peer_epoch : int array; (* newest epoch seen per peer *)
  mutable states_since_restore : int;
  checkpoints : ('s, 'm) checkpoint Checkpoint_store.t;
  (* Minimum surviving timestamp ever announced per origin: with no way to
     replay, dependencies past it are permanently invalid. *)
  floor : int array;
  metrics : Metrics.Scope.t;
}

let alive t = t.alive
let state t = t.state
let metrics t = t.metrics
let counters t = Metrics.Scope.counters t.metrics

let tr_on t = Trace.enabled (t.rt.Transport.tracer ())

(* Vector clock rendered as FTVC entries with ver = 0; the event's [ver]
   field carries the epoch (bumped on every restart or rollback). *)
let tr_clock vc =
  Array.of_list (List.map (fun ts -> { Ftvc.ver = 0; ts }) (Vclock.to_list vc))

let tr_emit ?clock t kind =
  let clock = match clock with Some c -> c | None -> tr_clock t.vc in
  Trace.emit
    (t.rt.Transport.tracer ())
    { at = t.rt.Transport.now (); pid = t.pid; ver = t.epoch; clock; kind }

let record_aux t =
  t.store.write_tokens
    [
      {
        ax_epoch = t.epoch;
        ax_floor = Array.copy t.floor;
        ax_peer_epoch = Array.copy t.peer_epoch;
      };
    ]

let send_app t dst data =
  Metrics.Scope.incr t.metrics "sent";
  Metrics.Scope.incr ~by:(t.n + 1) t.metrics "piggyback_words";
  let uid = t.next_uid () in
  if tr_on t then tr_emit t (Trace.Send { uid; dst });
  t.net.Transport.send ~lane:Transport.Data ~src:t.pid ~dst
    (W_app { data; vc = t.vc; epoch = t.epoch; sender = t.pid; uid });
  t.vc <- Vclock.tick t.vc ~me:t.pid

let run_app t ~src data =
  let state', sends = t.app.on_message ~me:t.pid ~src t.state data in
  t.state <- state';
  t.states_since_restore <- t.states_since_restore + 1;
  List.iter (fun (dst, payload) -> send_app t dst payload) sends

let take_checkpoint t =
  Metrics.Scope.incr t.metrics "checkpoints";
  if tr_on t then
    tr_emit t (Trace.Checkpoint { position = Vclock.get t.vc t.pid });
  let cp = { cp_state = t.state; cp_vc = t.vc } in
  let position = Vclock.get t.vc t.pid in
  Checkpoint_store.record t.checkpoints ~position cp;
  t.store.append_checkpoint ~position cp

let announce t ~cascade =
  Metrics.Scope.incr ~by:(t.n - 1) t.metrics "control_messages";
  if tr_on t then
    tr_emit t
      (Trace.Token_sent
         { origin = t.pid; ver = t.epoch; ts = Vclock.get t.vc t.pid });
  t.net.Transport.broadcast ~lane:Transport.Control ~src:t.pid
    (W_ann
       { a_origin = t.pid; a_ts = Vclock.get t.vc t.pid; a_cascade = cascade })

(* Land on the newest checkpoint consistent with every announcement floor.
   There is no log: everything since that checkpoint is forfeited. *)
let restore_to_floor t =
  match
    Checkpoint_store.latest_satisfying t.checkpoints (fun cp _ ->
        let ok = ref true in
        for j = 0 to t.n - 1 do
          if j <> t.pid && Vclock.get cp.cp_vc j > t.floor.(j) then ok := false
        done;
        !ok)
  with
  | None -> assert false
  | Some (cp, position) ->
      Metrics.Scope.incr ~by:t.states_since_restore t.metrics "lost_states";
      t.states_since_restore <- 0;
      t.state <- cp.cp_state;
      t.vc <- cp.cp_vc;
      Checkpoint_store.discard_after t.checkpoints ~position;
      t.store.discard_checkpoints_after ~position

let orphaned t =
  let rec loop j =
    j < t.n
    && ((j <> t.pid && Vclock.get t.vc j > t.floor.(j)) || loop (j + 1))
  in
  loop 0

let rollback t ~cascade =
  Metrics.Scope.incr t.metrics "rollbacks";
  if cascade then Metrics.Scope.incr t.metrics "cascade_rollbacks";
  let lost_before = Metrics.Scope.get t.metrics "lost_states" in
  restore_to_floor t;
  t.epoch <- t.epoch + 1;
  record_aux t;
  if tr_on t then
    tr_emit t
      (Trace.Rollback
         { discarded = Metrics.Scope.get t.metrics "lost_states" - lost_before });
  (* Our own rollback may orphan others: the domino propagates. The
     announcement carries the restored timestamp — everything beyond it is
     forfeit. *)
  announce t ~cascade:true;
  t.vc <- Vclock.tick t.vc ~me:t.pid

let receive_announcement t (a : announcement) =
  Metrics.Scope.incr t.metrics "tokens_received";
  if tr_on t then
    tr_emit t (Trace.Token_recv { origin = a.a_origin; ver = 0; ts = a.a_ts });
  if a.a_ts < t.floor.(a.a_origin) then begin
    t.floor.(a.a_origin) <- a.a_ts;
    record_aux t
  end;
  if t.alive && orphaned t then begin
    if tr_on t then
      tr_emit t
        (Trace.Orphan_detected { origin = a.a_origin; ver = 0; ts = a.a_ts });
    rollback t ~cascade:a.a_cascade
  end

let do_restart t =
  Metrics.Scope.incr t.metrics "restarts";
  t.epoch <- t.epoch + 1;
  restore_to_floor t;
  record_aux t;
  t.alive <- true;
  if tr_on t then tr_emit t (Trace.Restart { new_ver = t.epoch });
  t.net.Transport.set_up ~drop_held_data:false t.pid;
  announce t ~cascade:false;
  t.vc <- Vclock.tick t.vc ~me:t.pid;
  take_checkpoint t

let fail t =
  if t.alive then begin
    t.alive <- false;
    if tr_on t then tr_emit t Trace.Failure;
    Metrics.Scope.incr t.metrics "failures";
    t.net.Transport.set_down t.pid;
    t.rt.Transport.schedule ~daemon:false ~delay:t.config.restart_delay
      (fun () -> do_restart t)
  end

let receive_app t ?(uid = -1) ~src ~vc ~epoch data =
  if epoch < t.peer_epoch.(src) then begin
    (* Stale traffic from a discarded incarnation of the sender. *)
    Metrics.Scope.incr t.metrics "discarded_obsolete";
    if tr_on t then
      tr_emit ~clock:(tr_clock vc) t (Trace.Drop_obsolete { uid; src })
  end
  else begin
    if epoch > t.peer_epoch.(src) then begin
      t.peer_epoch.(src) <- epoch;
      record_aux t
    end;
    (* Dependency on permanently lost states: unrecoverable, drop. *)
    let dead = ref false in
    for j = 0 to t.n - 1 do
      if j <> t.pid && Vclock.get vc j > t.floor.(j) then dead := true
    done;
    if !dead then begin
      Metrics.Scope.incr t.metrics "discarded_obsolete";
      if tr_on t then
        tr_emit ~clock:(tr_clock vc) t (Trace.Drop_obsolete { uid; src })
    end
    else begin
      Metrics.Scope.incr t.metrics "delivered";
      (* The delivery record carries the clock the send piggybacked (not
         the post-merge local clock): the sanitizer's piggyback-integrity
         rule pairs the two, and orphan knowledge is reconstructed from
         exactly what crossed the wire. *)
      if tr_on t then tr_emit ~clock:(tr_clock vc) t (Trace.Deliver { uid; src });
      t.vc <- Vclock.merge t.vc ~me:t.pid vc;
      run_app t ~src data
    end
  end

let inject t data =
  if t.alive then begin
    Metrics.Scope.incr t.metrics "injected";
    t.vc <- Vclock.tick t.vc ~me:t.pid;
    run_app t ~src:env_src data
  end

let handle_wire t (w : 'm wire) =
  match w with
  | W_app { data; vc; epoch; sender; uid } ->
      if t.alive then receive_app t ~uid ~src:sender ~vc ~epoch data
  | W_ann a -> receive_announcement t a

(* The store's gen slot holds the worker generation. *)
let create_rt ~rt ~net ~app ~id:pid ~n ?(config = default_config) ?metrics
    ~gen ~(store : Protocol.store) ~next_uid () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.Scope.create ~protocol:"checkpoint-only" ~process:pid ()
  in
  let checkpoints =
    Checkpoint_store.of_items
      (if gen = 0 then [] else store.load_checkpoints ())
  in
  let aux =
    match if gen = 0 then [] else store.load_tokens () with
    | a :: _ -> a
    | [] ->
        {
          ax_epoch = 0;
          ax_floor = Array.make n max_int;
          ax_peer_epoch = Array.make n 0;
        }
  in
  let t =
    {
      pid;
      n;
      rt;
      net;
      app;
      config;
      store;
      next_uid;
      state = app.init pid;
      vc = Vclock.create ~n ~me:pid;
      alive = true;
      epoch = aux.ax_epoch;
      peer_epoch = aux.ax_peer_epoch;
      states_since_restore = 0;
      checkpoints;
      floor = aux.ax_floor;
      metrics;
    }
  in
  net.Transport.set_handler pid (fun w -> handle_wire t w);
  (* The initial restore point, unless the store already holds one. *)
  if Checkpoint_store.count checkpoints = 0 then take_checkpoint t;
  let rec checkpoint_loop () =
    if t.alive then take_checkpoint t;
    rt.Transport.schedule ~daemon:true ~delay:config.checkpoint_interval
      checkpoint_loop
  in
  rt.Transport.schedule ~daemon:true ~delay:config.checkpoint_interval
    checkpoint_loop;
  store.write_gen gen;
  t

let create ~engine ~net ~app ~id ~n ?config ?tracer:_ ?metrics ~next_uid () =
  create_rt ~rt:(Transport.of_engine engine) ~net:(Transport.of_network net)
    ~app ~id ~n ?config ?metrics ~gen:0 ~store:Protocol.null_store ~next_uid ()

(* Live-mode recovery for a rebuilt incarnation: the crash already
   happened (SIGKILL); emit the failure record for the killed
   incarnation, then run the ordinary restart — land on the newest
   checkpoint consistent with the persisted floors and announce the
   surviving timestamp so peers can domino. *)
let recover t =
  Metrics.Scope.incr t.metrics "failures";
  if tr_on t then tr_emit t Trace.Failure;
  t.alive <- false;
  do_restart t

(* Trace-sanitizer rules (optimist.check ids): deliveries carry the
   piggybacked vector clock, so the clock-pairing rule applies alongside
   the structural ones; recovery is announcement-driven without
   per-token rollback accounting. *)
let check_rules =
  [ "OPT001"; "OPT002"; "OPT003"; "OPT004"; "OPT005"; "OPT006"; "OPT007" ]

let incarnation _ = None

(* No log, so nothing replays; the cost is the work forfeited. *)
let recovery_profile t = (0, Metrics.Scope.get t.metrics "lost_states")
let finish _ = ()
