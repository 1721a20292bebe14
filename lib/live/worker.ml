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

type cfg = {
  plan : Plan.t;
  dir : string;
  me : int;
  gen : int;  (** incarnation: 0 on first spawn, +1 per restart *)
  base : float;  (** shared [Unix.gettimeofday] origin of the run *)
  link : Link.factory;
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

   Telemetry modes: [Full] writes the JSONL file, buffered: [main]
   flushes it once per loop callback and before every Link write (see
   there), and on close; [Ring] keeps events in a bounded in-memory ring
   (instrumentation runs, nothing hits disk — the overhead-bench middle
   ground); [Off] uses the null recorder, so the [Trace.enabled] guards
   short-circuit everywhere. *)
let open_trace cfg =
  match cfg.plan.telemetry with
  | Off -> (Trace.null, None)
  | Ring ->
      let tracer = Trace.create () in
      Trace.attach tracer (Trace.Ring.sink (Trace.Ring.create ()));
      (tracer, None)
  | Full ->
      let oc = open_out_bin (trace_file ~dir:cfg.dir ~me:cfg.me ~gen:cfg.gen) in
      let tracer = Trace.create () in
      Trace.attach tracer (Trace.jsonl_sink (output_string oc));
      (tracer, Some oc)

let write_stats cfg ~net_stats ~store_stats ~counters ~digest ~epoch =
  let kv l = List.map (fun (k, v) -> (k, Json.Int v)) l in
  let j =
    Json.Obj
      [
        ("pid", Json.Int cfg.me);
        ("gen", Json.Int cfg.gen);
        ("protocol", Json.String (Registry.name cfg.plan.protocol));
        ("telemetry", Json.String (Plan.telemetry_name cfg.plan.telemetry));
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
  let { Plan.seed; n; rate; duration; hops; _ } = cfg.plan in
  let injections =
    Schedule.poisson_injections ~seed:(Int64.add seed 7919L) ~n ~rate
      ~duration ~hops
  in
  let now = Loop.now loop in
  List.iter
    (fun (inj : Schedule.injection) ->
      if inj.pid = cfg.me && inj.at > now then
        Loop.schedule loop ~delay:(inj.at -. now) (fun () ->
            inject (Traffic.fresh ~key:inj.key ~hops:inj.hops)))
    injections

(* Unique across incarnations: a replayed send must not collide with a
   new one, so the generation is folded into the uid, above [seq_bits]
   bits of send sequence. A sequence or a generation that does not fit
   fails loudly: a uid reused silently is a message dropped as a
   duplicate. 2^40 sends outlast any run; 2^22 / n generations any
   crash schedule. *)
let seq_bits = 40

let uid ~n ~me ~gen seq =
  if seq < 1 || seq lsr seq_bits <> 0 then
    failwith (Printf.sprintf "worker %d: send sequence %d out of uid range" me seq);
  if gen < 0 || gen > (max_int / n) lsr seq_bits - 1 then
    failwith (Printf.sprintf "worker %d: generation %d out of uid range" me gen);
  (((gen lsl seq_bits) lor seq) * n) + me

let uid_gen cfg =
  let seq = ref 0 in
  fun () ->
    incr seq;
    uid ~n:cfg.plan.n ~me:cfg.me ~gen:cfg.gen !seq

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
          Trace.Snapshot { protocol = Registry.name cfg.plan.protocol; values };
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

let run (module P : Protocol.S) ?jitter ~before_write cfg loop sctx =
  let { Plan.n; seed; pattern; duration; settle; net_faults; _ } = cfg.plan in
  let link =
    Link.incarnation ?jitter ~before_write cfg.link ~loop ~me:cfg.me
      ~gen:cfg.gen ~n ~seed ~faults:net_faults
  in
  (* Gen 0 waits for the whole mesh to come up before the protocol starts
     talking; restarted incarnations find every peer already present. *)
  if not (Link.ready link ~timeout:10.0) then (
    prerr_endline
      (Printf.sprintf "worker %d: peers did not appear within 10s" cfg.me);
    exit 1);
  let store = Store.open_ (store_dir ~dir:cfg.dir ~me:cfg.me) in
  (* Wire-level telemetry rides the same Snapshot machinery as protocol
     metrics, in separate link.*-valued records: the recovery profiler
     keys on "delivered"/"recovery.*" and ignores them, while the bench
     and dashboards get per-link byte/frame/reconnect series for free. *)
  schedule_snapshots cfg loop ~ver:(fun () -> cfg.gen) (fun () ->
      Link.snapshot link);
  let rec_span =
    if cfg.gen > 0 then Some (Span.start sctx "recovery") else None
  in
  let bytes_before = Store.bytes_read store in
  let p =
    P.create_rt ~rt:(Loop.runtime loop)
      ~net:(span_transport sctx (Link.transport link))
      ~app:(Traffic.app ~n pattern)
      ~id:cfg.me ~n ~gen:cfg.gen ~store:(stable_store sctx store)
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
  Loop.run loop ~until:(duration +. settle);
  P.finish p;
  emit_snapshot cfg loop ~ver:(ver ())
    (("gen", float_of_int cfg.gen) :: Metrics.Scope.snapshot (P.metrics p));
  let epoch =
    match P.incarnation p with Some v -> v | None -> Store.load_gen store
  in
  emit_snapshot cfg loop ~ver:cfg.gen
    (("gen", float_of_int cfg.gen) :: Link.snapshot link);
  write_stats cfg
    ~net_stats:(Link.stats link)
    ~store_stats:(Store.stats store) ~counters:(P.counters p)
    ~digest:(Traffic.digest (P.state p)) ~epoch;
  Store.close store;
  Link.close link

let main cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let impl =
    match Registry.live cfg.plan.protocol with
    | Ok impl -> impl
    | Error msg -> invalid_arg msg
  in
  (* A FIFO-assuming protocol runs jitter-free: with zero jitter the Link
     queues each Data frame in its send call, behind the frames already
     pending for that peer, and writes them in that order, so frames
     reach the fabric in send order, and both fabrics keep that order per
     peer pair (AF_UNIX datagram queues, TCP streams). Everyone else gets
     the link's default jitter. *)
  let jitter =
    if Registry.fifo cfg.plan.protocol then Some (0.0, 0.0) else None
  in
  let tracer, trace_oc = open_trace cfg in
  let loop = Loop.create ~tracer ~base:cfg.base () in
  let sctx =
    Span.create ~tracer ~now:(fun () -> Loop.now loop) ~pid:cfg.me ()
  in
  (* The trace is flushed once per loop callback, not once per line. A
     Send must be on disk before its frame is on the wire, otherwise a
     crash could yield a receiver-side Deliver whose Send the merged trace
     never saw (a false OPT002), so the Link flushes it before every
     write too, including one forced inside a callback. The seam flush
     keeps what a SIGKILL can take from the trace to one callback's
     lines: a store write whose Log_flush line was lost would make the
     successor's first checkpoint look unstable (OPT013). *)
  let flush_trace () = Option.iter flush trace_oc in
  Loop.on_seam loop flush_trace;
  run impl ?jitter ~before_write:flush_trace cfg loop sctx;
  Trace.close tracer;
  Option.iter close_out_noerr trace_oc
