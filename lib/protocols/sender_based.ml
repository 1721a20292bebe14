module Protocol = Optimist_core.Protocol
module Transport = Optimist_core.Transport
module Checkpoint_store = Optimist_storage.Checkpoint_store
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
open Optimist_core.Types

(* Every frame names its sender: the transport seam hands the protocol
   the bare payload (no envelope), so ack/confirm/retransmission targets
   ride in the wire type itself. *)
type 'm wire =
  | W_app of { data : 'm; sender : int; uid : int; retransmit_rsn : int option }
      (** application message; [retransmit_rsn] is set on recovery resends
          so the receiver can slot it at its original position *)
  | W_ack of { sender : int; uid : int; rsn : int }
      (** receiver -> sender: RSN *)
  | W_confirm of { rsn : int }  (** sender -> receiver: RSN recorded *)
  | W_recover of { sender : int; from_rsn : int }
      (** restarting receiver -> all *)
  | W_recover_done

type 'm sent_record = {
  sr_dst : int;
  sr_data : 'm;
  sr_uid : int;
  mutable sr_rsn : int option;
}

type 's checkpoint = { ck_state : 's; ck_rsn : int }

type config = { checkpoint_interval : float; restart_delay : float }

let default_config = { checkpoint_interval = 200.0; restart_delay = 20.0 }

(* Live timer settings: seconds, not the simulator's virtual units. *)
let live_config = { checkpoint_interval = 1.0; restart_delay = 0.3 }

type ('s, 'm) recovery = {
  mutable buffered : (int * 'm * int) list; (* rsn, data, src *)
  mutable done_count : int;
  started_at : float;
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
  mutable alive : bool;
  mutable replaying : bool;
  mutable rsn_next : int; (* next receive sequence number = deliveries so far *)
  mutable unconfirmed : int; (* deliveries whose RSN is not yet confirmed *)
  mutable outbox : (int * 'm) list; (* sends blocked on confirmation, newest first *)
  mutable blocked_since : float option;
  (* volatile send log, keyed by uid *)
  send_log : (int, 'm sent_record) Hashtbl.t;
  (* stable record of deliveries indexed by rsn, for local replay *)
  mutable delivered_log : (int * 'm) array; (* src, data *)
  mutable delivered_len : int;
  mutable recovery : ('s, 'm) recovery option;
  mutable fresh_during_recovery : (int * 'm * (int * int) option) list;
      (* src, data, (sender, uid) to acknowledge *)
  checkpoints : 's checkpoint Checkpoint_store.t;
  mutable epoch : int;
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
    {
      at = t.rt.Transport.now ();
      pid = t.pid;
      ver = t.epoch;
      clock = [||];
      kind;
    }

let charge_blocked t since =
  let ms = int_of_float (1000.0 *. (t.rt.Transport.now () -. since)) in
  Metrics.Scope.incr ~by:ms t.metrics "blocked_time_x1000"

(* In J-Z the receiver's deliveries are reconstructed from the senders'
   logs; we additionally keep a local array standing in for the volatile
   delivery record that a real implementation replays from after the
   senders retransmit. It is wiped on crash like any volatile state. *)
let record_delivery t ~src data =
  if t.delivered_len = Array.length t.delivered_log then begin
    let next = max 16 (2 * t.delivered_len) in
    let a = Array.make next (src, data) in
    Array.blit t.delivered_log 0 a 0 t.delivered_len;
    t.delivered_log <- a
  end;
  t.delivered_log.(t.delivered_len) <- (src, data);
  t.delivered_len <- t.delivered_len + 1

let send_wire t ?(lane = Transport.Data) dst w =
  t.net.Transport.send ~lane ~src:t.pid ~dst w

let really_send t dst data =
  let uid = t.next_uid () in
  Metrics.Scope.incr t.metrics "sent";
  Metrics.Scope.incr ~by:2 t.metrics "piggyback_words";
  Hashtbl.replace t.send_log uid
    { sr_dst = dst; sr_data = data; sr_uid = uid; sr_rsn = None };
  if tr_on t then tr_emit t (Trace.Send { uid; dst });
  send_wire t dst (W_app { data; sender = t.pid; uid; retransmit_rsn = None })

let flush_outbox t =
  if t.unconfirmed = 0 && t.recovery = None then begin
    (match t.blocked_since with
    | Some since ->
        charge_blocked t since;
        t.blocked_since <- None
    | None -> ());
    let sends = List.rev t.outbox in
    t.outbox <- [];
    List.iter (fun (dst, data) -> really_send t dst data) sends
  end

(* The send-blocking rule: a send may leave only when every local delivery
   has a confirmed RSN at its sender. *)
let send_app t dst data =
  if not t.replaying then begin
    if t.unconfirmed = 0 && t.recovery = None then really_send t dst data
    else begin
      if t.outbox = [] && t.blocked_since = None then
        t.blocked_since <- Some (t.rt.Transport.now ());
      t.outbox <- (dst, data) :: t.outbox
    end
  end

let run_app t ~src data =
  let state', sends = t.app.on_message ~me:t.pid ~src t.state data in
  t.state <- state';
  List.iter (fun (dst, payload) -> send_app t dst payload) sends

let deliver t ~src data ~ack =
  let rsn = t.rsn_next in
  t.rsn_next <- rsn + 1;
  record_delivery t ~src data;
  Metrics.Scope.incr t.metrics "delivered";
  if tr_on t then begin
    let uid = match ack with Some (_, uid) -> uid | None -> -1 in
    tr_emit t (Trace.Deliver { uid; src })
  end;
  (match ack with
  | Some (sender, uid) when sender >= 0 ->
      t.unconfirmed <- t.unconfirmed + 1;
      Metrics.Scope.incr t.metrics "control_messages";
      send_wire t ~lane:Transport.Control sender
        (W_ack { sender = t.pid; uid; rsn })
  | _ -> ());
  run_app t ~src data

let inject t data =
  if t.alive && t.recovery = None then begin
    Metrics.Scope.incr t.metrics "injected";
    (* Environment stimuli are treated as stably logged on arrival. *)
    deliver t ~src:env_src data ~ack:None
  end

let take_checkpoint t =
  Metrics.Scope.incr t.metrics "checkpoints";
  if tr_on t then tr_emit t (Trace.Checkpoint { position = t.rsn_next });
  let cp = { ck_state = t.state; ck_rsn = t.rsn_next } in
  Checkpoint_store.record t.checkpoints ~position:t.rsn_next cp;
  t.store.append_checkpoint ~position:t.rsn_next cp

let finish_recovery t (r : ('s, 'm) recovery) =
  (* Replay retransmitted messages in RSN order from the checkpoint; a gap
     means the original sender crashed too and its volatile log is gone. *)
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) r.buffered in
  t.replaying <- false;
  let rec replay expected = function
    | [] -> expected
    | (rsn, data, src) :: rest ->
        if rsn < expected then replay expected rest (* duplicate *)
        else if rsn = expected then begin
          Metrics.Scope.incr t.metrics "replayed";
          record_delivery t ~src data;
          run_app t ~src data;
          replay (expected + 1) rest
        end
        else begin
          Metrics.Scope.incr ~by:(List.length rest + 1) t.metrics "unrecoverable";
          expected
        end
  in
  (* Suppress resends while reconstructing: peers already hold them. *)
  t.replaying <- true;
  let resumed_at = replay t.rsn_next sorted in
  t.replaying <- false;
  t.rsn_next <- resumed_at;
  t.recovery <- None;
  charge_blocked t r.started_at;
  take_checkpoint t;
  (* Deliver what arrived while recovering. *)
  let fresh = List.rev t.fresh_during_recovery in
  t.fresh_during_recovery <- [];
  List.iter (fun (src, data, ack) -> deliver t ~src data ~ack) fresh;
  flush_outbox t

let do_restart t =
  Metrics.Scope.incr t.metrics "restarts";
  t.epoch <- t.epoch + 1;
  t.store.write_gen t.epoch;
  (match Checkpoint_store.latest t.checkpoints with
  | None -> assert false
  | Some (cp, _) ->
      t.state <- cp.ck_state;
      t.rsn_next <- cp.ck_rsn;
      t.delivered_len <- min t.delivered_len cp.ck_rsn);
  t.alive <- true;
  if tr_on t then tr_emit t (Trace.Restart { new_ver = t.epoch });
  t.unconfirmed <- 0;
  t.outbox <- [];
  t.blocked_since <- None;
  t.net.Transport.set_up ~drop_held_data:false t.pid;
  t.recovery <-
    Some { buffered = []; done_count = 0; started_at = t.rt.Transport.now () };
  Metrics.Scope.incr ~by:(t.n - 1) t.metrics "control_messages";
  if tr_on t then
    tr_emit t (Trace.Token_sent { origin = t.pid; ver = t.epoch; ts = t.rsn_next });
  t.net.Transport.broadcast ~lane:Transport.Control ~src:t.pid
    (W_recover { sender = t.pid; from_rsn = t.rsn_next })

let fail t =
  if t.alive then begin
    t.alive <- false;
    if tr_on t then tr_emit t Trace.Failure;
    Metrics.Scope.incr t.metrics "failures";
    (* Volatile state lost: the send log, delivery record, outbox. *)
    Hashtbl.reset t.send_log;
    t.delivered_len <- 0;
    t.outbox <- [];
    t.fresh_during_recovery <- [];
    t.recovery <- None;
    t.net.Transport.set_down t.pid;
    t.rt.Transport.schedule ~daemon:false ~delay:t.config.restart_delay
      (fun () -> do_restart t)
  end

let handle_recover_request t ~src ~from_rsn =
  if tr_on t then
    tr_emit t (Trace.Token_recv { origin = src; ver = 0; ts = from_rsn });
  (* Retransmit everything we logged for [src] with a recorded RSN past the
     checkpoint, then signal completion. *)
  Hashtbl.iter
    (fun _ r ->
      if r.sr_dst = src then
        match r.sr_rsn with
        | Some rsn when rsn >= from_rsn ->
            Metrics.Scope.incr t.metrics "retransmitted";
            send_wire t ~lane:Transport.Control src
              (W_app
                 {
                   data = r.sr_data;
                   sender = t.pid;
                   uid = r.sr_uid;
                   retransmit_rsn = Some rsn;
                 })
        | Some _ -> ()
        | None ->
            (* Unacknowledged: the receiver never delivered it (or lost the
               delivery); resend as fresh. *)
            Metrics.Scope.incr t.metrics "retransmitted";
            send_wire t ~lane:Transport.Control src
              (W_app
                 {
                   data = r.sr_data;
                   sender = t.pid;
                   uid = r.sr_uid;
                   retransmit_rsn = None;
                 }))
    t.send_log;
  Metrics.Scope.incr t.metrics "control_messages";
  send_wire t ~lane:Transport.Control src W_recover_done

let handle_wire t (w : 'm wire) =
  match w with
  | W_app { data; sender = src; uid; retransmit_rsn } -> (
      match t.recovery with
      | Some r -> (
          match retransmit_rsn with
          | Some rsn -> r.buffered <- (rsn, data, src) :: r.buffered
          | None ->
              t.fresh_during_recovery <-
                (src, data, Some (src, uid)) :: t.fresh_during_recovery)
      | None -> (
          match retransmit_rsn with
          | Some _ ->
              (* Late retransmission after recovery finished: duplicate. *)
              ()
          | None -> deliver t ~src data ~ack:(Some (src, uid))))
  | W_ack { sender = src; uid; rsn } -> (
      match Hashtbl.find_opt t.send_log uid with
      | Some r ->
          r.sr_rsn <- Some rsn;
          Metrics.Scope.incr t.metrics "control_messages";
          send_wire t ~lane:Transport.Control src (W_confirm { rsn })
      | None ->
          (* We crashed since sending; the record is gone. The receiver's
             delivery is then unrecoverable if we crash again — nothing to
             confirm. Still confirm so the receiver does not block forever. *)
          send_wire t ~lane:Transport.Control src (W_confirm { rsn }))
  | W_confirm _ ->
      if t.unconfirmed > 0 then begin
        t.unconfirmed <- t.unconfirmed - 1;
        flush_outbox t
      end
  | W_recover { sender = src; from_rsn } ->
      handle_recover_request t ~src ~from_rsn
  | W_recover_done -> (
      match t.recovery with
      | Some r ->
          r.done_count <- r.done_count + 1;
          if r.done_count = t.n - 1 then finish_recovery t r
      | None -> ())

(* Only checkpoints and the epoch (in the store's gen slot) are stable in
   J-Z: the send log is volatile by design, which is the protocol's
   point. *)
let create_rt ~rt ~net ~app ~id:pid ~n ?(config = default_config) ?metrics
    ~gen ~(store : Protocol.store) ~next_uid () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.Scope.create ~protocol:"sender-based" ~process:pid ()
  in
  let checkpoints, epoch =
    if gen = 0 then (Checkpoint_store.create (), 0)
    else
      (Checkpoint_store.of_items (store.load_checkpoints ()), store.load_gen ())
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
      replaying = false;
      rsn_next = 0;
      unconfirmed = 0;
      outbox = [];
      blocked_since = None;
      send_log = Hashtbl.create 64;
      delivered_log = [||];
      delivered_len = 0;
      recovery = None;
      fresh_during_recovery = [];
      checkpoints;
      epoch;
      metrics;
    }
  in
  net.Transport.set_handler pid (fun w -> handle_wire t w);
  (* The initial restore point, unless the store already holds one. *)
  if Checkpoint_store.count checkpoints = 0 then take_checkpoint t;
  let rec checkpoint_loop () =
    if t.alive && t.recovery = None then take_checkpoint t;
    rt.Transport.schedule ~daemon:true ~delay:config.checkpoint_interval
      checkpoint_loop
  in
  rt.Transport.schedule ~daemon:true ~delay:config.checkpoint_interval
    checkpoint_loop;
  t

let create ~engine ~net ~app ~id ~n ?config ?tracer:_ ?metrics ~next_uid () =
  create_rt ~rt:(Transport.of_engine engine) ~net:(Transport.of_network net)
    ~app ~id ~n ?config ?metrics ~gen:0 ~store:Protocol.null_store ~next_uid ()

(* Live-mode crash recovery for a rebuilt incarnation: emit the failure
   record for the incarnation the crash killed, then run the ordinary
   restart — restore the last stable checkpoint and ask every peer to
   retransmit from its volatile send log. The answers arrive through the
   transport, so recovery completes asynchronously once all [n - 1]
   peers (or their next incarnations) have responded. *)
let recover t =
  Metrics.Scope.incr t.metrics "failures";
  if tr_on t then tr_emit t Trace.Failure;
  t.alive <- false;
  do_restart t

(* Trace-sanitizer rules (optimist.check ids): no clocks on the wire,
   so only the structural rules apply. Duplicate-delivery is out: a
   send that was never acknowledged is resent as fresh during the
   receiver's recovery, and the original copy may still be in flight,
   so the same uid can genuinely reach the application twice — this
   baseline dedups retransmissions by RSN only. *)
let check_rules = [ "OPT001"; "OPT002"; "OPT006"; "OPT007" ]

let incarnation _ = None

(* Retransmissions arrive asynchronously after the broadcast, so
   [replayed] counts only what was in by the time recover returned;
   peers never roll back. *)
let recovery_profile t = (Metrics.Scope.get t.metrics "replayed", 0)
let finish _ = ()
