module Protocol = Optimist_core.Protocol
module Transport = Optimist_core.Transport
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
open Optimist_core.Types

(* The transport seam hands the protocol the bare payload (no envelope),
   so the rollback token names its origin in the wire type itself. *)
type 'm wire =
  | W_app of { data : 'm; epoch : int; sender : int; uid : int }
  | W_request of { round : int }  (** initiator -> all: tentative checkpoint *)
  | W_ready of { round : int }  (** participant -> initiator *)
  | W_commit of { round : int }  (** initiator -> all: make permanent *)
  | W_rollback of { sender : int; epoch : int }
      (** failure: everyone back to the line *)

type ('s, 'm) snapshot = { sn_state : 's; sn_round : int }

type config = { checkpoint_interval : float; restart_delay : float }

let default_config = { checkpoint_interval = 150.0; restart_delay = 20.0 }

(* Live timer settings: seconds, not the simulator's virtual units. *)
let live_config = { checkpoint_interval = 1.0; restart_delay = 0.3 }

(* The epoch and round counters, in the store's token slot. *)
type aux = { ax_epoch : int; ax_peer_epoch : int array; ax_round : int }

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
  mutable alive : bool;
  mutable epoch : int; (* bumped on every system-wide rollback *)
  mutable peer_epoch : int array;
  mutable committed : ('s, 'm) snapshot; (* last committed line (stable) *)
  mutable tentative : ('s, 'm) snapshot option;
  mutable in_round : bool; (* between tentative checkpoint and commit *)
  mutable blocked_since : float;
  mutable buffered : (int * 'm * int) list; (* src, data, epoch; newest first *)
  mutable outbox : (int * 'm) list; (* sends held during the round *)
  mutable ready_count : int; (* initiator-side *)
  mutable round : int;
  mutable states_since_commit : int;
  metrics : Metrics.Scope.t;
}

let alive t = t.alive
let state t = t.state
let metrics t = t.metrics
let counters t = Metrics.Scope.counters t.metrics

let tr_on t = Trace.enabled (t.rt.Transport.tracer ())

let tr_emit t kind =
  Trace.emit
    (t.rt.Transport.tracer ())
    { at = t.rt.Transport.now (); pid = t.pid; ver = t.epoch; clock = [||]; kind }

let is_initiator t = t.pid = 0

let record_aux t =
  t.store.write_tokens
    [
      {
        ax_epoch = t.epoch;
        ax_peer_epoch = Array.copy t.peer_epoch;
        ax_round = t.round;
      };
    ]

let really_send t dst data =
  Metrics.Scope.incr t.metrics "sent";
  Metrics.Scope.incr ~by:2 t.metrics "piggyback_words";
  let uid = t.next_uid () in
  if tr_on t then tr_emit t (Trace.Send { uid; dst });
  t.net.Transport.send ~lane:Transport.Data ~src:t.pid ~dst
    (W_app { data; epoch = t.epoch; sender = t.pid; uid })

let send_app t dst data =
  if t.in_round then t.outbox <- (dst, data) :: t.outbox
  else really_send t dst data

let run_app t ~src data =
  let state', sends = t.app.on_message ~me:t.pid ~src t.state data in
  t.state <- state';
  t.states_since_commit <- t.states_since_commit + 1;
  List.iter (fun (dst, payload) -> send_app t dst payload) sends

let deliver t ?(uid = -1) ~src ~epoch data =
  if src >= 0 && epoch < t.peer_epoch.(src) then begin
    (* Stale traffic from before a system-wide rollback. *)
    Metrics.Scope.incr t.metrics "discarded_obsolete";
    if tr_on t then tr_emit t (Trace.Drop_obsolete { uid; src })
  end
  else begin
    if src >= 0 && epoch > t.peer_epoch.(src) then begin
      t.peer_epoch.(src) <- epoch;
      record_aux t
    end;
    if t.in_round then t.buffered <- (src, data, epoch) :: t.buffered
    else begin
      Metrics.Scope.incr t.metrics "delivered";
      if tr_on t then tr_emit t (Trace.Deliver { uid; src });
      run_app t ~src data
    end
  end

let inject t data =
  if t.alive then begin
    Metrics.Scope.incr t.metrics "injected";
    deliver t ~src:env_src ~epoch:t.epoch data
  end

let control t dst w =
  Metrics.Scope.incr t.metrics "control_messages";
  t.net.Transport.send ~lane:Transport.Control ~src:t.pid ~dst w

let broadcast_control t w =
  Metrics.Scope.incr ~by:(t.n - 1) t.metrics "control_messages";
  t.net.Transport.broadcast ~lane:Transport.Control ~src:t.pid w

(* Enter the blocking phase: tentative checkpoint, hold all traffic. *)
let take_tentative t round =
  if t.alive && not t.in_round then begin
    t.in_round <- true;
    t.round <- round;
    t.blocked_since <- t.rt.Transport.now ();
    t.tentative <- Some { sn_state = t.state; sn_round = round };
    Metrics.Scope.incr t.metrics "checkpoints";
    if tr_on t then tr_emit t (Trace.Checkpoint { position = round })
  end

let release t =
  Metrics.Scope.incr
    ~by:(int_of_float (1000.0 *. (t.rt.Transport.now () -. t.blocked_since)))
    t.metrics "blocked_time_x1000";
  t.in_round <- false;
  let sends = List.rev t.outbox in
  t.outbox <- [];
  List.iter (fun (dst, data) -> really_send t dst data) sends;
  let pending = List.rev t.buffered in
  t.buffered <- [];
  List.iter (fun (src, data, epoch) -> deliver t ~src ~epoch data) pending

let commit t round =
  (match t.tentative with
  | Some sn when sn.sn_round = round ->
      t.committed <- sn;
      t.states_since_commit <- 0;
      t.tentative <- None;
      t.store.append_checkpoint ~position:sn.sn_round sn;
      record_aux t
  | _ -> ());
  if t.in_round then release t

(* Every process rolls back to the committed line; all work since is
   forfeit (there is no log to replay from). *)
let rollback_to_line t ~src ~epoch =
  if epoch > t.epoch then begin
    Metrics.Scope.incr t.metrics "rollbacks";
    Metrics.Scope.incr ~by:t.states_since_commit t.metrics "lost_states";
    let discarded = t.states_since_commit in
    t.states_since_commit <- 0;
    t.state <- t.committed.sn_state;
    (* The rollback token orphans everything since the line: record the
       detection against the token before stepping to its epoch, keyed so
       each system-wide rollback counts as one distinct token. *)
    if tr_on t then
      tr_emit t (Trace.Orphan_detected { origin = src; ver = 0; ts = -epoch });
    t.epoch <- epoch;
    if tr_on t then tr_emit t (Trace.Rollback { discarded });
    t.tentative <- None;
    if t.in_round then release t;
    t.buffered <- [];
    t.outbox <- [];
    record_aux t
  end

let do_restart t =
  Metrics.Scope.incr t.metrics "restarts";
  t.state <- t.committed.sn_state;
  Metrics.Scope.incr ~by:t.states_since_commit t.metrics "lost_states";
  t.states_since_commit <- 0;
  t.epoch <- t.epoch + 1;
  t.tentative <- None;
  t.in_round <- false;
  t.buffered <- [];
  t.outbox <- [];
  t.alive <- true;
  record_aux t;
  if tr_on t then begin
    tr_emit t (Trace.Restart { new_ver = t.epoch });
    tr_emit t (Trace.Token_sent { origin = t.pid; ver = t.epoch; ts = 0 })
  end;
  t.net.Transport.set_up ~drop_held_data:true t.pid;
  broadcast_control t (W_rollback { sender = t.pid; epoch = t.epoch })

let fail t =
  if t.alive then begin
    t.alive <- false;
    if tr_on t then tr_emit t Trace.Failure;
    Metrics.Scope.incr t.metrics "failures";
    t.net.Transport.set_down t.pid;
    t.rt.Transport.schedule ~daemon:false ~delay:t.config.restart_delay
      (fun () -> do_restart t)
  end

let handle_wire t (w : 'm wire) =
  match w with
  | W_app { data; epoch; sender; uid } ->
      if t.alive then deliver t ~uid ~src:sender ~epoch data
  | W_request { round } ->
      take_tentative t round;
      control t 0 (W_ready { round })
  | W_ready { round } ->
      if is_initiator t && round = t.round then begin
        t.ready_count <- t.ready_count + 1;
        if t.ready_count = t.n - 1 then begin
          broadcast_control t (W_commit { round });
          commit t round
        end
      end
  | W_commit { round } -> commit t round
  | W_rollback { sender; epoch } ->
      if tr_on t then
        tr_emit t (Trace.Token_recv { origin = sender; ver = epoch; ts = 0 });
      rollback_to_line t ~src:sender ~epoch

let start_rounds t =
  if is_initiator t then begin
    let rec round_loop k () =
      if t.alive && not t.in_round then begin
        t.ready_count <- 0;
        take_tentative t k;
        broadcast_control t (W_request { round = k })
      end;
      t.rt.Transport.schedule ~daemon:true ~delay:t.config.checkpoint_interval
        (round_loop (k + 1))
    in
    t.rt.Transport.schedule ~daemon:true ~delay:t.config.checkpoint_interval
      (round_loop (t.round + 1))
  end

(* The committed line is the only recovery point, so it (plus the epoch
   and round counters) is all that ever reaches stable storage; the
   store's gen slot holds the worker generation. The initial state is
   the committed line until a round commits, so a store that holds no
   snapshot restarts from it. *)
let create_rt ~rt ~net ~app ~id:pid ~n ?(config = default_config) ?metrics
    ~gen ~(store : Protocol.store) ~next_uid () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.Scope.create ~protocol:"coordinated" ~process:pid ()
  in
  let committed =
    match if gen = 0 then [] else store.load_checkpoints () with
    | (sn, _) :: _ -> sn
    | [] -> { sn_state = app.init pid; sn_round = 0 }
  in
  let aux =
    match if gen = 0 then [] else store.load_tokens () with
    | a :: _ -> a
    | [] -> { ax_epoch = 0; ax_peer_epoch = Array.make n 0; ax_round = 0 }
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
      alive = true;
      epoch = aux.ax_epoch;
      peer_epoch = aux.ax_peer_epoch;
      committed;
      tentative = None;
      in_round = false;
      blocked_since = 0.0;
      buffered = [];
      outbox = [];
      ready_count = 0;
      round = aux.ax_round;
      states_since_commit = 0;
      metrics;
    }
  in
  net.Transport.set_handler pid (fun w -> handle_wire t w);
  start_rounds t;
  store.write_gen gen;
  t

let create ~engine ~net ~app ~id ~n ?config ?tracer:_ ?metrics ~next_uid () =
  create_rt ~rt:(Transport.of_engine engine) ~net:(Transport.of_network net)
    ~app ~id ~n ?config ?metrics ~gen:0 ~store:Protocol.null_store ~next_uid ()

(* Live-mode recovery for a rebuilt incarnation: emit the failure record
   for the killed incarnation, restore the committed line and broadcast
   the rollback token that drags every peer back to it. *)
let recover t =
  Metrics.Scope.incr t.metrics "failures";
  if tr_on t then tr_emit t Trace.Failure;
  t.alive <- false;
  do_restart t

(* Trace-sanitizer rules (optimist.check ids): no clocks at all; peers
   record the rollback token as the orphan that justifies their
   coordinated rollback, so the structural rules plus the
   rollback-bound rule apply. *)
let check_rules = [ "OPT001"; "OPT002"; "OPT003"; "OPT006"; "OPT007" ]

let incarnation _ = None
let recovery_profile t = (0, Metrics.Scope.get t.metrics "lost_states")
let finish _ = ()
