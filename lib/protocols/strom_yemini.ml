module Protocol = Optimist_core.Protocol
module Transport = Optimist_core.Transport
module Ftvc = Optimist_clock.Ftvc
module Message_log = Optimist_storage.Message_log
module Checkpoint_store = Optimist_storage.Checkpoint_store
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
open Optimist_core.Types

(* The dependency vector reuses the FTVC entry layout: (incarnation,
   timestamp) per process — Strom-Yemini also stamp incarnations, they just
   keep no per-incarnation history behind the current entry. *)

type announcement = { a_origin : int; a_inc : int; a_ts : int }

type 'm wire =
  | W_app of { data : 'm; clock : Ftvc.entry array; sender : int; uid : int }
  | W_ann of announcement

type 'm entry_log =
  | E_msg of { data : 'm; clock : Ftvc.entry array; sender : int }
  | E_mark of Ftvc.entry  (* rollback timestamp bump, as in the core *)

type ('s, 'm) checkpoint = { cp_state : 's; cp_clock : Ftvc.t }

type config = {
  checkpoint_interval : float;
  flush_interval : float;
  restart_delay : float;
}

let default_config =
  { checkpoint_interval = 200.0; flush_interval = 25.0; restart_delay = 20.0 }

(* Live timer settings: seconds, not the simulator's virtual units. *)
let live_config =
  { checkpoint_interval = 1.0; flush_interval = 0.25; restart_delay = 0.3 }

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
  mutable clock : Ftvc.t;
  mutable alive : bool;
  mutable replaying : bool;
  (* dirty.(j): our entry for j jumped to an incarnation whose predecessor
     announcements we had not yet seen — dependency info was lost. *)
  dirty : bool array;
  log : 'm entry_log Message_log.t;
  checkpoints : ('s, 'm) checkpoint Checkpoint_store.t;
  mutable announcements : announcement list; (* stable, like D-G tokens *)
  metrics : Metrics.Scope.t;
  c_sent : Metrics.Scope.counter;
  c_piggyback_words : Metrics.Scope.counter;
}

let alive t = t.alive
let state t = t.state
let incarnation t = Some (Ftvc.own t.clock).Ftvc.ver
let metrics t = t.metrics
let counters t = Metrics.Scope.counters t.metrics

let tr_on t = Trace.enabled (t.rt.Transport.tracer ())

let tr_emit ?clock t kind =
  let clock = match clock with Some c -> c | None -> Ftvc.piggyback t.clock in
  Trace.emit
    (t.rt.Transport.tracer ())
    {
      at = t.rt.Transport.now ();
      pid = t.pid;
      ver = (Ftvc.own t.clock).Ftvc.ver;
      clock;
      kind;
    }

let has_announcement t ~origin ~inc =
  List.exists (fun a -> a.a_origin = origin && a.a_inc = inc) t.announcements

let announcements_complete_below t ~origin ~inc =
  let rec loop l = l >= inc || (has_announcement t ~origin ~inc:l && loop (l + 1)) in
  loop 0

(* Lemma-4-style obsolete test, against the announcement table. *)
let clock_entry_dead t ~pid (e : Ftvc.entry) =
  List.exists
    (fun a -> a.a_origin = pid && a.a_inc = e.Ftvc.ver && e.Ftvc.ts > a.a_ts)
    t.announcements

let message_obsolete t (clock : Ftvc.entry array) =
  let n = Array.length clock in
  let rec loop j = j < n && (clock_entry_dead t ~pid:j clock.(j) || loop (j + 1)) in
  loop 0

(* --- storage --- *)

let flush_now t =
  let before = Message_log.stable_length t.log in
  Message_log.flush t.log;
  let stable = Message_log.stable_length t.log in
  if stable > before then begin
    let fresh = ref [] in
    Message_log.iter_range t.log ~from:before ~until:stable (fun e ->
        fresh := e :: !fresh);
    t.store.append_log (List.rev !fresh);
    if tr_on t then tr_emit t (Trace.Log_flush { stable })
  end

let take_checkpoint t =
  flush_now t;
  Metrics.Scope.incr t.metrics "checkpoints";
  if tr_on t then
    tr_emit t (Trace.Checkpoint { position = Message_log.total_length t.log });
  let position = Message_log.total_length t.log in
  let cp = { cp_state = t.state; cp_clock = t.clock } in
  Checkpoint_store.record t.checkpoints ~position cp;
  t.store.append_checkpoint ~position cp

(* --- sending / delivering --- *)

let send_app t dst data =
  if t.replaying then t.clock <- Ftvc.sent t.clock
  else begin
    let uid = t.next_uid () in
    Metrics.Scope.bump t.c_sent;
    Metrics.Scope.bump t.c_piggyback_words ~by:(Ftvc.size_words t.clock);
    if tr_on t then tr_emit t (Trace.Send { uid; dst });
    (* The pre-send clock's own array, shared read-only with the message:
       [Ftvc.sent] below copies before it bumps. *)
    t.net.Transport.send ~lane:Transport.Data ~src:t.pid ~dst
      (W_app { data; clock = Ftvc.piggyback t.clock; sender = t.pid; uid });
    t.clock <- Ftvc.sent t.clock
  end

let run_app t ~src data =
  let state', sends = t.app.on_message ~me:t.pid ~src t.state data in
  t.state <- state';
  List.iter (fun (dst, payload) -> send_app t dst payload) sends

let note_blind_jumps t (clock : Ftvc.entry array) =
  Array.iteri
    (fun j (e : Ftvc.entry) ->
      if j <> t.pid then begin
        let mine = Ftvc.get t.clock j in
        if
          e.Ftvc.ver > mine.Ftvc.ver
          && not (announcements_complete_below t ~origin:j ~inc:e.Ftvc.ver)
        then begin
          Metrics.Scope.incr t.metrics "blind_jumps";
          t.dirty.(j) <- true
        end
      end)
    clock

let deliver_now t ~src ~clock data =
  Message_log.append t.log (E_msg { data; clock; sender = src });
  note_blind_jumps t clock;
  t.clock <- Ftvc.deliver_entries t.clock ~received:clock;
  Metrics.Scope.incr t.metrics (if src = env_src then "injected" else "delivered");
  run_app t ~src data

let replay_entry t e =
  Metrics.Scope.incr t.metrics "replayed";
  match e with
  | E_msg { data; clock; sender } ->
      t.clock <- Ftvc.deliver_entries t.clock ~received:clock;
      run_app t ~src:sender data
  | E_mark own -> t.clock <- Ftvc.with_own t.clock own

(* --- restore machinery --- *)

(* Safety of a dependency entry with respect to one announcement. The
   [conservative] flag implements the information-loss penalty: when the
   entry has already jumped past the announced incarnation, the process
   cannot tell whether the dead interval is in its causal past, so the
   state counts as unsafe. *)
let entry_safe ~conservative (a : announcement) (e : Ftvc.entry) =
  if e.Ftvc.ver = a.a_inc then e.Ftvc.ts <= a.a_ts
  else if e.Ftvc.ver > a.a_inc then not conservative
  else true

let clock_safe ~against (c : Ftvc.entry array) =
  List.for_all
    (fun (a, conservative) -> entry_safe ~conservative a c.(a.a_origin))
    against

let restore t ~against =
  match
    Checkpoint_store.latest_satisfying t.checkpoints (fun cp _ ->
        clock_safe ~against (Ftvc.entries cp.cp_clock))
  with
  | None -> assert false
  | Some (cp, position) ->
      t.state <- cp.cp_state;
      t.clock <- cp.cp_clock;
      let stable = Message_log.stable_length t.log in
      t.replaying <- true;
      let rec replay pos =
        if pos < stable then
          let e = Message_log.get t.log pos in
          let ok =
            match e with
            | E_mark _ -> true
            | E_msg { clock; _ } -> clock_safe ~against clock
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
        t.store.truncate_log ~stable:stop;
        Checkpoint_store.discard_after t.checkpoints ~position:stop;
        t.store.discard_checkpoints_after ~position:stop
      end

let all_known_exact t =
  List.map (fun a -> (a, false)) t.announcements

let record_announcement t a =
  if not (has_announcement t ~origin:a.a_origin ~inc:a.a_inc) then begin
    t.announcements <- a :: t.announcements;
    (* A small table, rewritten whole on every change (a single-blob
       slot, like D-G's token log). *)
    t.store.write_tokens t.announcements
  end

let rollback t ~trigger ~conservative =
  Metrics.Scope.incr t.metrics "rollbacks";
  if conservative then Metrics.Scope.incr t.metrics "conservative_rollbacks";
  flush_now t;
  let orphaned = t.clock in
  let against = (trigger, conservative) :: all_known_exact t in
  let truncated_before = Metrics.Scope.get t.metrics "log_truncated" in
  restore t ~against;
  if tr_on t then
    tr_emit t
      (Trace.Rollback
         {
           discarded =
             Metrics.Scope.get t.metrics "log_truncated" - truncated_before;
         });
  t.clock <- Ftvc.rolled_back_from ~restored:t.clock ~orphaned;
  Message_log.append t.log (E_mark (Ftvc.own t.clock));
  flush_now t;
  Array.fill t.dirty 0 t.n false

(* --- announcements --- *)

let receive_announcement t (a : announcement) =
  Metrics.Scope.incr t.metrics "tokens_received";
  if tr_on t then
    tr_emit t
      (Trace.Token_recv { origin = a.a_origin; ver = a.a_inc; ts = a.a_ts });
  record_announcement t a;
  let e = Ftvc.get t.clock a.a_origin in
  if e.Ftvc.ver = a.a_inc && e.Ftvc.ts > a.a_ts then begin
    if tr_on t then
      tr_emit t
        (Trace.Orphan_detected
           { origin = a.a_origin; ver = a.a_inc; ts = a.a_ts });
    rollback t ~trigger:a ~conservative:false
  end
  else if e.Ftvc.ver > a.a_inc && t.dirty.(a.a_origin) then
    (* The dependency information on the announced incarnation was lost in
       a blind jump: roll back conservatively past the jump. *)
    rollback t ~trigger:a ~conservative:true

(* --- failure / restart --- *)

(* The post-restore half of a restart: announce the surviving own entry,
   step to the next incarnation, checkpoint the restored state. *)
let announce_and_restart t =
  let own = Ftvc.own t.clock in
  if tr_on t then
    tr_emit t
      (Trace.Token_sent { origin = t.pid; ver = own.Ftvc.ver; ts = own.Ftvc.ts });
  t.net.Transport.broadcast ~lane:Transport.Control ~src:t.pid
    (W_ann { a_origin = t.pid; a_inc = own.Ftvc.ver; a_ts = own.Ftvc.ts });
  record_announcement t
    { a_origin = t.pid; a_inc = own.Ftvc.ver; a_ts = own.Ftvc.ts };
  t.clock <- Ftvc.restart t.clock;
  t.alive <- true;
  if tr_on t then
    tr_emit t (Trace.Restart { new_ver = (Ftvc.own t.clock).Ftvc.ver });
  t.net.Transport.set_up ~drop_held_data:false t.pid;
  take_checkpoint t

let do_restart t =
  Metrics.Scope.incr t.metrics "restarts";
  restore t ~against:(all_known_exact t);
  announce_and_restart t

let fail t =
  if t.alive then begin
    t.alive <- false;
    if tr_on t then tr_emit t Trace.Failure;
    Metrics.Scope.incr t.metrics "failures";
    Message_log.crash t.log;
    Array.fill t.dirty 0 t.n false;
    t.net.Transport.set_down t.pid;
    t.rt.Transport.schedule ~daemon:false ~delay:t.config.restart_delay
      (fun () -> do_restart t)
  end

(* --- receive path: no deliverability hold --- *)

let receive_app t ~src ~clock ~uid data =
  if message_obsolete t clock then begin
    Metrics.Scope.incr t.metrics "discarded_obsolete";
    if tr_on t then tr_emit ~clock t (Trace.Drop_obsolete { uid; src })
  end
  else begin
    if tr_on t then tr_emit ~clock t (Trace.Deliver { uid; src });
    deliver_now t ~src ~clock data
  end

let inject t data =
  if t.alive then
    deliver_now t ~src:env_src ~clock:(Array.make t.n { Ftvc.ver = 0; ts = 0 }) data

let handle_wire t (w : 'm wire) =
  match w with
  | W_app { data; clock; sender; uid } -> receive_app t ~src:sender ~clock ~uid data
  | W_ann a -> receive_announcement t a

(* Everything a crash must not erase: the flushed log prefix, the
   checkpoints, and the announcement table (Strom-Yemini announcements
   play the role of D-G tokens and are logged stably on receipt). The
   store's gen slot holds the worker generation. *)
let create_rt ~rt ~net ~app ~id:pid ~n ?(config = default_config) ?metrics
    ~gen ~(store : Protocol.store) ~next_uid () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.Scope.create ~protocol:"strom-yemini" ~process:pid ()
  in
  let log, checkpoints, announcements =
    if gen = 0 then (Message_log.create (), Checkpoint_store.create (), [])
    else
      ( Message_log.of_stable (store.load_log ()),
        Checkpoint_store.of_items (store.load_checkpoints ()),
        store.load_tokens () )
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
      clock = Ftvc.create ~n ~me:pid;
      alive = true;
      replaying = false;
      dirty = Array.make n false;
      log;
      checkpoints;
      announcements;
      metrics;
      c_sent = Metrics.Scope.counter metrics "sent";
      c_piggyback_words = Metrics.Scope.counter metrics "piggyback_words";
    }
  in
  net.Transport.set_handler pid (fun w -> handle_wire t w);
  (* The initial restore point, unless the store already holds one. *)
  if Checkpoint_store.count checkpoints = 0 then take_checkpoint t;
  let rec flush_loop () =
    if t.alive then flush_now t;
    rt.Transport.schedule ~daemon:true ~delay:config.flush_interval flush_loop
  in
  let rec checkpoint_loop () =
    if t.alive then take_checkpoint t;
    rt.Transport.schedule ~daemon:true ~delay:config.checkpoint_interval
      checkpoint_loop
  in
  rt.Transport.schedule ~daemon:true ~delay:config.flush_interval flush_loop;
  rt.Transport.schedule ~daemon:true ~delay:config.checkpoint_interval
    checkpoint_loop;
  store.write_gen gen;
  t

let create ~engine ~net ~app ~id ~n ?config ?tracer:_ ?metrics ~next_uid () =
  create_rt ~rt:(Transport.of_engine engine) ~net:(Transport.of_network net)
    ~app ~id ~n ?config ?metrics ~gen:0 ~store:Protocol.null_store ~next_uid ()

(* Live-mode recovery for a rebuilt incarnation. The restore runs first
   so the failure record carries the incarnation the crash actually
   killed (every own-incarnation bump is flushed before any later event,
   so the stable log always knows it); then the ordinary restart tail
   announces and steps to the next incarnation. *)
let recover t =
  Metrics.Scope.incr t.metrics "failures";
  Metrics.Scope.incr t.metrics "restarts";
  restore t ~against:(all_known_exact t);
  if tr_on t then tr_emit t Trace.Failure;
  t.alive <- false;
  announce_and_restart t

(* Trace-sanitizer rules (optimist.check ids): messages piggyback full
   clocks, so the clock-integrity rules apply, and obsolete discards
   are driven by recovery announcements just like Lemma 4 tokens.
   Rollbacks can be conservative — triggered by an announcement without
   a per-token orphan detection — so the rollback-bound rule is out. *)
let check_rules =
  [
    "OPT001";
    "OPT002";
    "OPT003";
    "OPT004";
    "OPT005";
    "OPT006";
    "OPT007";
    "OPT008";
    "OPT009";
  ]

let recovery_profile t =
  ( Metrics.Scope.get t.metrics "replayed",
    Metrics.Scope.get t.metrics "log_truncated" )

let finish _ = ()
