module Protocol = Optimist_core.Protocol
module Transport = Optimist_core.Transport
module Registry = Optimist_protocols.Registry
module Traffic = Optimist_workload.Traffic
module Schedule = Optimist_workload.Schedule
module Trace = Optimist_obs.Trace
module Span = Optimist_obs.Span
module Metrics = Optimist_obs.Metrics
module Json = Optimist_obs.Json

include Registry.Ids

type protocol = id

let all_protocols = Registry.live_protocols
let live_check_rules = Registry.live_check_rules

type telemetry = Off | Ring | Full

let telemetry_name = function Off -> "off" | Ring -> "ring" | Full -> "full"

type cfg = {
  dir : string;
  me : int;
  n : int;
  protocol : protocol;
  gen : int;  (** incarnation: 0 on first spawn, +1 per restart *)
  seed : int64;
  base : float;  (** shared [Unix.gettimeofday] origin of the run *)
  duration : float;  (** injection window, seconds *)
  settle : float;  (** extra drain time after the window *)
  rate : float;
  hops : int;
  pattern : Traffic.pattern;
  jitter : float * float;
  faults : Livenet.faults;
  telemetry : telemetry;
  link : Link.factory option;
      (** [None] = the classic single-host UDS mesh built from [dir],
          [faults] and [seed]; [Some f] = an alternative fabric (the
          cluster's TCP link). *)
}

let trace_file ~dir ~me ~gen =
  Filename.concat dir (Printf.sprintf "trace.%d.g%d.jsonl" me gen)

let stats_file ~dir ~me ~gen =
  Filename.concat dir (Printf.sprintf "worker.%d.g%d.json" me gen)

let store_dir ~dir ~me = Filename.concat dir (Printf.sprintf "store.w%d" me)

(* Every incarnation writes its own trace file: a SIGKILL can tear the
   last line of the dying incarnation's file, and per-file isolation
   keeps that torn tail from corrupting the successor's stream. The
   merge step (Merge) skips unparsable lines and re-sorts globally.

   Telemetry modes: [Full] writes the JSONL file; [Ring] keeps events in
   a bounded in-memory ring (instrumentation runs, nothing hits disk —
   the overhead-bench middle ground); [Off] uses the null recorder, so
   the [Trace.enabled] guards short-circuit everywhere. *)
let open_trace cfg =
  match cfg.telemetry with
  | Off -> (Trace.null, None)
  | Ring ->
      let tracer = Trace.create () in
      Trace.attach tracer (Trace.Ring.sink (Trace.Ring.create ()));
      (tracer, None)
  | Full ->
      let oc = open_out_bin (trace_file ~dir:cfg.dir ~me:cfg.me ~gen:cfg.gen) in
      let tracer = Trace.create () in
      (* Flush every line: a Send must be on disk before the datagram is
         on the wire, otherwise a crash could yield a receiver-side
         Deliver whose Send the merged trace never saw (a false
         OPT002). *)
      Trace.attach tracer
        (Trace.jsonl_sink (fun line ->
             output_string oc line;
             flush oc));
      (tracer, Some oc)

let write_stats cfg ~net_stats ~store_stats ~counters ~digest ~epoch =
  let kv l = List.map (fun (k, v) -> (k, Json.Int v)) l in
  let j =
    Json.Obj
      [
        ("pid", Json.Int cfg.me);
        ("gen", Json.Int cfg.gen);
        ("protocol", Json.String (Registry.name cfg.protocol));
        ("telemetry", Json.String (telemetry_name cfg.telemetry));
        ("epoch", Json.Int epoch);
        ("digest", Json.Int digest);
        ("counters", Json.Obj (kv counters));
        ("net", Json.Obj (kv net_stats));
        ("store", Json.Obj (kv store_stats));
      ]
  in
  let path = stats_file ~dir:cfg.dir ~me:cfg.me ~gen:cfg.gen in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc

(* Injection schedule: derived from the run seed exactly like the
   simulated runner derives it, shared by every worker, filtered down to
   this pid. A restarted incarnation recomputes the same schedule and
   keeps only the injections still in the future — the ones its
   predecessor already absorbed are in the stable log and come back via
   replay, so re-injecting them would double them. *)
let schedule_injections cfg loop inject =
  let injections =
    Schedule.poisson_injections
      ~seed:(Int64.add cfg.seed 7919L)
      ~n:cfg.n ~rate:cfg.rate ~duration:cfg.duration ~hops:cfg.hops
  in
  let now = Loop.now loop in
  List.iter
    (fun (inj : Schedule.injection) ->
      if inj.pid = cfg.me && inj.at > now then
        Loop.schedule loop ~delay:(inj.at -. now) (fun () ->
            inject (Traffic.fresh ~key:inj.key ~hops:inj.hops)))
    injections

(* Unique across incarnations: a replayed send must not collide with a
   new one, so the generation is folded into the uid. *)
let uid_gen cfg =
  let seq = ref 0 in
  fun () ->
    incr seq;
    (((cfg.gen lsl 28) + !seq) * cfg.n) + cfg.me

(* --- telemetry plumbing --- *)

let snapshot_period = 0.5

let emit_snapshot cfg loop ~ver values =
  let tracer = Loop.tracer loop in
  if Trace.enabled tracer then
    Trace.emit tracer
      {
        Trace.at = Loop.now loop;
        pid = cfg.me;
        ver;
        clock = [||];
        kind =
          Trace.Snapshot { protocol = Registry.name cfg.protocol; values };
      }

(* Periodic snapshots, re-armed until the loop deadline drops the
   pending timer. [ver] and [values] are thunked because the snapshot
   content must reflect the state at fire time. *)
let schedule_snapshots cfg loop ~ver values =
  if Trace.enabled (Loop.tracer loop) then begin
    let rec tick () =
      emit_snapshot cfg loop ~ver:(ver ())
        (("gen", float_of_int cfg.gen) :: values ());
      Loop.schedule loop ~delay:snapshot_period tick
    in
    Loop.schedule loop ~delay:snapshot_period tick
  end

(* Wrap the transport so every inbound datagram's protocol handling runs
   under a span. One span per message is cheap next to the syscall that
   delivered it, and it is what makes per-message latency visible in the
   merged timeline. *)
let span_transport sctx (net : 'a Transport.t) =
  {
    net with
    Transport.set_handler =
      (fun pid f ->
        net.Transport.set_handler pid (fun m ->
            Span.with_ sctx "handle" (fun () -> f m)));
  }

(* One recovery record per restarted incarnation: wall-clock latency of
   the whole path (store reload -> process rebuild -> recover/replay),
   plus what it cost. [depth] is the surviving work the protocol
   discarded (see {!Protocol.S.recovery_profile}); a clean crash-replay
   recovery legitimately reports 0 — nothing that survived was rolled
   back. *)
let emit_recovery cfg loop store ~ver ~latency ~replayed ~depth ~bytes_before =
  emit_snapshot cfg loop ~ver
    [
      ("gen", float_of_int cfg.gen);
      ("recovery.bytes_reread", float_of_int (Store.bytes_read store - bytes_before));
      ("recovery.latency", latency);
      ("recovery.messages_replayed", float_of_int replayed);
      ("recovery.rollback_depth", float_of_int depth);
    ]

(* The stable store every protocol writes through, each write under a
   span. *)
let stable_store sctx store =
  let span name f = Span.with_ sctx name f in
  {
    Protocol.append_log =
      (fun entries ->
        span "store.log_flush" (fun () ->
            List.iter (Store.append_log store) entries));
    truncate_log =
      (fun ~stable ->
        span "store.truncate" (fun () -> Store.truncate_log store ~stable));
    append_checkpoint =
      (fun ~position c ->
        span "store.checkpoint" (fun () ->
            Store.append_checkpoint store ~position c));
    discard_checkpoints_after =
      (fun ~position -> Store.discard_checkpoints_after store ~position);
    write_tokens =
      (fun tokens ->
        span "store.tokens" (fun () -> Store.write_tokens store tokens));
    write_gen = Store.write_gen store;
    load_log = (fun () -> Store.load_log store);
    load_checkpoints = (fun () -> Store.load_checkpoints store);
    load_tokens = (fun () -> Store.load_tokens store);
    load_gen = (fun () -> Store.load_gen store);
  }

let run (module P : Protocol.S) cfg loop sctx =
  let factory =
    match cfg.link with
    | Some f -> f
    | None ->
        Livenet.factory ~faults:cfg.faults ~dir:cfg.dir ~n:cfg.n
          ~seed:cfg.seed ()
  in
  let link =
    factory.Link.make ~loop ~me:cfg.me ~gen:cfg.gen ~jitter:cfg.jitter
  in
  (* Gen 0 waits for the whole mesh to come up before the protocol starts
     talking; restarted incarnations find every peer already present. *)
  if not (link.Link.ready ~timeout:10.0) then (
    prerr_endline
      (Printf.sprintf "worker %d: peers did not appear within 10s" cfg.me);
    exit 1);
  let store = Store.open_ (store_dir ~dir:cfg.dir ~me:cfg.me) in
  (* Wire-level telemetry rides the same Snapshot machinery as protocol
     metrics, in separate link.*-valued records: the recovery profiler
     keys on "delivered"/"recovery.*" and ignores them, while the bench
     and dashboards get per-link byte/frame/reconnect series for free. *)
  schedule_snapshots cfg loop ~ver:(fun () -> cfg.gen) link.Link.snapshot;
  let rec_span =
    if cfg.gen > 0 then Some (Span.start sctx "recovery") else None
  in
  let bytes_before = Store.bytes_read store in
  let p =
    P.create_rt ~rt:(Loop.runtime loop)
      ~net:(span_transport sctx link.Link.transport)
      ~app:(Traffic.app ~n:cfg.n cfg.pattern)
      ~id:cfg.me ~n:cfg.n ~gen:cfg.gen ~store:(stable_store sctx store)
      ~next_uid:(uid_gen cfg) ()
  in
  let ver () = Option.value (P.incarnation p) ~default:cfg.gen in
  Span.set_version sctx ver;
  Option.iter
    (fun sp ->
      P.recover p;
      let latency = Span.finish sctx sp in
      let replayed, depth = P.recovery_profile p in
      emit_recovery cfg loop store ~ver:(ver ()) ~latency ~replayed ~depth
        ~bytes_before)
    rec_span;
  schedule_snapshots cfg loop ~ver (fun () ->
      Metrics.Scope.snapshot (P.metrics p));
  schedule_injections cfg loop (P.inject p);
  Loop.run loop ~until:(cfg.duration +. cfg.settle);
  P.finish p;
  emit_snapshot cfg loop ~ver:(ver ())
    (("gen", float_of_int cfg.gen) :: Metrics.Scope.snapshot (P.metrics p));
  let epoch =
    match P.incarnation p with Some v -> v | None -> Store.load_gen store
  in
  emit_snapshot cfg loop ~ver:cfg.gen
    (("gen", float_of_int cfg.gen) :: link.Link.snapshot ());
  write_stats cfg
    ~net_stats:(link.Link.stats ())
    ~store_stats:(Store.stats store) ~counters:(P.counters p)
    ~digest:(Traffic.digest (P.state p)) ~epoch;
  Store.close store;
  link.Link.close ()

let main cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let impl =
    match Registry.live cfg.protocol with
    | Ok impl -> impl
    | Error msg -> invalid_arg msg
  in
  (* A FIFO-assuming protocol runs jitter-free: zero jitter keeps the
     datagram mesh order-preserving enough for the assumption to hold in
     practice (kernel AF_UNIX queues are FIFO per socket pair). *)
  let cfg =
    if Registry.fifo cfg.protocol then { cfg with jitter = (0.0, 0.0) }
    else cfg
  in
  let tracer, trace_oc = open_trace cfg in
  let loop = Loop.create ~tracer ~base:cfg.base () in
  let sctx =
    Span.create ~tracer ~now:(fun () -> Loop.now loop) ~pid:cfg.me ()
  in
  run impl cfg loop sctx;
  Trace.close tracer;
  Option.iter close_out_noerr trace_oc
