module Protocol = Optimist_core.Protocol
module Transport = Optimist_core.Transport
module Message_log = Optimist_storage.Message_log
module Checkpoint_store = Optimist_storage.Checkpoint_store
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
open Optimist_core.Types

(* The wire format carries no clock: pessimism needs no causality
   tracking. *)
type 'm wire = { data : 'm; sender : int; uid : int }

type 'm entry = { e_data : 'm; e_sender : int }

type config = {
  sync_write_latency : float;
  checkpoint_interval : float;
  restart_delay : float;
  ack_before_fsync : bool;
      (** Mutant for the model checker's self-test: process and
          acknowledge a delivery before its log entry reaches stable
          storage. Breaks the whole point of pessimism — a crash in the
          window silently loses a processed message, and checkpoints
          cover log positions that were never stable (OPT013). *)
}

let default_config =
  {
    sync_write_latency = 0.5;
    checkpoint_interval = 200.0;
    restart_delay = 20.0;
    ack_before_fsync = false;
  }

(* Live timer settings: seconds, not the simulator's virtual units. *)
let live_config =
  {
    default_config with
    sync_write_latency = 0.002;
    checkpoint_interval = 1.0;
    restart_delay = 0.3;
  }

type ('s, 'm) t = {
  pid : int;
  rt : Transport.runtime;
  net : 'm wire Transport.t;
  app : ('s, 'm) app;
  config : config;
  store : Protocol.store;
  next_uid : unit -> int;
  mutable state : 's;
  mutable alive : bool;
  mutable replaying : bool;
  mutable processed : int; (* log entries whose handler has run *)
  mutable epoch : int; (* incarnation counter guarding delayed handlers *)
  log : 'm entry Message_log.t;
  checkpoints : 's Checkpoint_store.t;
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

let send_app t dst data =
  if not t.replaying then begin
    Metrics.Scope.incr t.metrics "sent";
    (* O(1) header: sender id + uid, counted as 2 words. *)
    Metrics.Scope.incr ~by:2 t.metrics "piggyback_words";
    let uid = t.next_uid () in
    if tr_on t then tr_emit t (Trace.Send { uid; dst });
    t.net.Transport.send ~lane:Transport.Data ~src:t.pid ~dst
      { data; sender = t.pid; uid }
  end

let run_app t ~src data =
  let state', sends = t.app.on_message ~me:t.pid ~src t.state data in
  t.state <- state';
  List.iter (fun (dst, payload) -> send_app t dst payload) sends

(* Synchronous logging: the entry is forced to stable storage, the
   simulated write latency is charged, and only then does the handler
   run. A crash in the window between the write and the handler loses
   nothing: replay re-runs the handler from the stable log. *)
let deliver t ?(uid = -1) ~src data =
  let entry = { e_data = data; e_sender = src } in
  if t.config.ack_before_fsync then begin
    (* Mutant: the entry is appended but never forced; the handler runs
       immediately, so [processed] races ahead of the stable prefix. *)
    Message_log.append t.log entry;
    if tr_on t then
      tr_emit t (Trace.Log_flush { stable = Message_log.stable_length t.log });
    Metrics.Scope.incr t.metrics "delivered";
    if tr_on t then tr_emit t (Trace.Deliver { uid; src });
    t.processed <- t.processed + 1;
    run_app t ~src data
  end
  else begin
    Message_log.append t.log entry;
    Message_log.flush t.log;
    t.store.append_log [ entry ];
    if tr_on t then
      tr_emit t (Trace.Log_flush { stable = Message_log.stable_length t.log });
    Metrics.Scope.incr
      ~by:(int_of_float (1000.0 *. t.config.sync_write_latency))
      t.metrics "blocked_time_x1000";
    let epoch = t.epoch in
    t.rt.Transport.schedule
      ~label:
        { Transport.Engine.l_kind = "handler"; l_pid = t.pid; l_src = src;
          l_info = "" }
      ~daemon:false ~delay:t.config.sync_write_latency
      (fun () ->
        if t.alive && t.epoch = epoch then begin
          Metrics.Scope.incr t.metrics "delivered";
          if tr_on t then tr_emit t (Trace.Deliver { uid; src });
          t.processed <- t.processed + 1;
          run_app t ~src data
        end)
  end

let inject t data =
  if t.alive then begin
    Metrics.Scope.incr t.metrics "injected";
    deliver t ~src:env_src data
  end

let take_checkpoint t =
  Metrics.Scope.incr t.metrics "checkpoints";
  if tr_on t then tr_emit t (Trace.Checkpoint { position = t.processed });
  Checkpoint_store.record t.checkpoints ~position:t.processed t.state;
  t.store.append_checkpoint ~position:t.processed t.state

let do_restart t =
  Metrics.Scope.incr t.metrics "restarts";
  t.epoch <- t.epoch + 1;
  t.store.write_gen t.epoch;
  (match Checkpoint_store.latest t.checkpoints with
  | None -> assert false
  | Some (snapshot, position) ->
      t.state <- snapshot;
      t.replaying <- true;
      Message_log.iter_range t.log ~from:position
        ~until:(Message_log.stable_length t.log) (fun e ->
          Metrics.Scope.incr t.metrics "replayed";
          run_app t ~src:e.e_sender e.e_data);
      t.replaying <- false;
      t.processed <- Message_log.stable_length t.log);
  t.alive <- true;
  if tr_on t then tr_emit t (Trace.Restart { new_ver = t.epoch });
  t.net.Transport.set_up ~drop_held_data:false t.pid;
  take_checkpoint t

let fail t =
  if t.alive then begin
    t.alive <- false;
    if tr_on t then tr_emit t Trace.Failure;
    Metrics.Scope.incr t.metrics "failures";
    t.net.Transport.set_down t.pid;
    t.rt.Transport.schedule
      ~label:
        { Transport.Engine.l_kind = "restart"; l_pid = t.pid; l_src = -1;
          l_info = "" }
      ~daemon:false ~delay:t.config.restart_delay (fun () -> do_restart t)
  end

let handle_wire t (w : 'm wire) = deliver t ~uid:w.uid ~src:w.sender w.data

(* Stable: every log entry before its handler runs, the checkpoints,
   and the epoch in the store's gen slot, so a rebuilt worker resumes
   counting incarnations where the dead one stopped. *)
let create_rt ~rt ~net ~app ~id:pid ~n:_ ?(config = default_config) ?metrics
    ~gen ~(store : Protocol.store) ~next_uid () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.Scope.create ~protocol:"pessimistic" ~process:pid ()
  in
  let log, checkpoints, epoch =
    if gen = 0 then (Message_log.create (), Checkpoint_store.create (), 0)
    else
      ( Message_log.of_stable (store.load_log ()),
        Checkpoint_store.of_items (store.load_checkpoints ()),
        store.load_gen () )
  in
  let t =
    {
      pid;
      rt;
      net;
      app;
      config;
      store;
      next_uid;
      state = app.init pid;
      alive = true;
      replaying = false;
      processed = 0;
      epoch;
      log;
      checkpoints;
      metrics;
    }
  in
  net.Transport.set_handler pid (fun w -> handle_wire t w);
  (* The initial restore point, unless the store already holds one. *)
  if Checkpoint_store.count checkpoints = 0 then take_checkpoint t;
  let timer =
    { Transport.Engine.l_kind = "timer"; l_pid = pid; l_src = -1;
      l_info = "checkpoint" }
  in
  let rec checkpoint_loop () =
    if t.alive then take_checkpoint t;
    rt.Transport.schedule ~label:timer ~daemon:true
      ~delay:config.checkpoint_interval checkpoint_loop
  in
  rt.Transport.schedule ~label:timer ~daemon:true
    ~delay:config.checkpoint_interval checkpoint_loop;
  t

let create ~engine ~net ~app ~id ~n ?config ?tracer:_ ?metrics ~next_uid () =
  create_rt ~rt:(Transport.of_engine engine) ~net:(Transport.of_network net)
    ~app ~id ~n ?config ?metrics ~gen:0 ~store:Protocol.null_store ~next_uid ()

(* Live-mode crash recovery for a rebuilt incarnation: emit the failure
   record for the incarnation the crash killed, then run the ordinary
   local restart (restore + replay + checkpoint). *)
let recover t =
  Metrics.Scope.incr t.metrics "failures";
  if tr_on t then tr_emit t Trace.Failure;
  t.alive <- false;
  do_restart t

(* Trace-sanitizer rules (optimist.check ids) this baseline's event
   stream satisfies. No FTVCs are piggybacked, so the clock-carrying
   rules do not apply. Checkpoint positions count processed entries,
   and a handler only runs once its entry is stable, so the
   checkpoint-stability rule (OPT013) holds too — which is exactly what
   the [ack_before_fsync] mutant breaks. *)
let check_rules =
  [ "OPT001"; "OPT002"; "OPT003"; "OPT006"; "OPT007"; "OPT013" ]

let incarnation _ = None

(* Recovery is local: surviving state is never rolled back. *)
let recovery_profile t = (Metrics.Scope.get t.metrics "replayed", 0)
let finish _ = ()
