(* The live mesh, in one OS process: n = 4 Damani-Garg processes, each
   with a real Livenet Unix-domain datagram socket and a real on-disk
   Store, wired the way Worker.run_dg wires them, sharing one Loop.

   A crash abandons the incarnation: its socket, store and trace are
   closed and its timers are gated off, so nothing it held in memory
   survives; the page cache does, as it does under SIGKILL. The next
   incarnation is rebuilt from the Store image and recovered, like a
   worker respawned by the supervisor. *)

module Loop = Optimist_live.Loop
module Livenet = Optimist_live.Livenet
module Store = Optimist_live.Store
module Worker = Optimist_live.Worker
module Merge = Optimist_live.Merge
module Process = Optimist_core.Process
module Transport = Optimist_core.Transport
module Types = Optimist_core.Types
module Trace = Optimist_obs.Trace
module Span = Optimist_obs.Span
module Check = Optimist_check.Check
module Samples = Timing.Samples

let n = 4
let hops = 4

(* Copied from Worker, which does not export them: the live Damani-Garg
   config, the uid scheme (unique across incarnations), and the
   per-incarnation Livenet seed and control-sequence base. *)
let live_config =
  {
    Types.default_config with
    checkpoint_interval = 1.0;
    flush_interval = 0.25;
    restart_delay = 0.3;
    retransmit_lost = true;
  }

let uid_gen ~gen ~me =
  let seq = ref 0 in
  fun () ->
    incr seq;
    (((gen lsl 28) + !seq) * n) + me

type wire = Chain.msg Types.wire

type inc = {
  alive : bool ref;
  net : wire Livenet.t;
  store : Store.t;
  proc : (Chain.state, Chain.msg) Process.t;
  trace : Trace.t;
  trace_oc : out_channel option;
}

type t = {
  dir : string;
  loop : Loop.t;
  seed : int64;
  config : Types.config;
  telemetry : bool;
  app : (Chain.state, Chain.msg) Types.app;
  hooks : Types.tracer;
  mutable on_output : pid:int -> seq:int -> Chain.msg -> unit;
  mutable on_token : pid:int -> Types.token -> unit;
      (** a process returned from handling a token *)
  nodes : inc option array;  (** [None] while crashed *)
  gens : int array;
  mutable counts : Report.counts;  (** of incarnations already stopped *)
  mutable trace_events : int;
  mutable trace_bytes : int;
  mutable truncates : int;
}

let create ~dir ~seed ~config ~telemetry ~hooks =
  {
    dir;
    loop = Loop.create ~base:(Unix.gettimeofday ()) ();
    seed;
    config;
    telemetry;
    app = Chain.app ~n ~seed:(Int64.to_int seed);
    hooks;
    on_output = (fun ~pid:_ ~seq:_ _ -> ());
    on_token = (fun ~pid:_ _ -> ());
    nodes = Array.make n None;
    gens = Array.make n 0;
    counts = Report.no_counts;
    trace_events = 0;
    trace_bytes = 0;
    truncates = 0;
  }

(* A dead incarnation's timers must not fire: the Loop is shared, so
   each incarnation schedules through its own gate. *)
let runtime m alive tracer =
  Probe.runtime
    {
      Transport.now = (fun () -> Loop.now m.loop);
      schedule =
        (fun ?label:_ ~daemon:_ ~delay f ->
          Loop.schedule m.loop ~delay (fun () -> if !alive then f ()));
      tracer = (fun () -> tracer);
    }

(* Worker's transport wrapping (a "handle" span of the system's own
   telemetry per inbound message), over the bench probes, over token
   detection for the system-wide recovery time. *)
let transport m ~me sctx net =
  let base = Livenet.transport net in
  let detect =
    {
      base with
      Transport.set_handler =
        (fun id f ->
          base.Transport.set_handler id (fun w ->
              f w;
              match w with
              | Types.Wire_token { token; _ } -> m.on_token ~pid:me token
              | Types.Wire_app _ | Types.Wire_frontier _ -> ()));
    }
  in
  let probed = Probe.transport detect in
  {
    probed with
    Transport.set_handler =
      (fun id f ->
        probed.Transport.set_handler id (fun w ->
            Span.with_ sctx "handle" (fun () -> f w)));
  }

(* Worker's stable hooks, each also under a bench store span. *)
let stable m sctx store =
  let span name f = Spans.with_ Spans.Store (fun () -> Span.with_ sctx name f) in
  {
    Process.log_appended =
      (fun entries ->
        span "store.log_flush" (fun () -> List.iter (Store.append_log store) entries));
    log_truncated =
      (fun ~stable ->
        m.truncates <- m.truncates + 1;
        span "store.truncate" (fun () -> Store.truncate_log store ~stable));
    checkpoint_recorded =
      (fun ~position cp ->
        span "store.checkpoint" (fun () -> Store.append_checkpoint store ~position cp));
    checkpoints_discarded_after =
      (fun ~position ->
        Spans.with_ Spans.Store (fun () ->
            Store.discard_checkpoints_after store ~position));
    tokens_logged =
      (fun tokens -> span "store.tokens" (fun () -> Store.write_tokens store tokens));
  }

(* Worker's Full telemetry: one JSONL file per incarnation, flushed per
   line. The bench wraps the sink to time and count it. *)
let open_trace m ~me ~gen =
  if not m.telemetry then (Trace.null, None)
  else begin
    let oc = open_out_bin (Worker.trace_file ~dir:m.dir ~me ~gen) in
    let inner = Trace.create () in
    Trace.attach inner
      (Trace.jsonl_sink (fun line ->
           m.trace_bytes <- m.trace_bytes + String.length line;
           output_string oc line;
           flush oc));
    let outer = Trace.create () in
    Trace.attach outer
      (Trace.sink
         ~close:(fun () -> Trace.close inner)
         (fun ev ->
           m.trace_events <- m.trace_events + 1;
           Spans.with_ Spans.Sink (fun () -> Trace.emit inner ev)));
    (outer, Some oc)
  end

(* Bring up incarnation [gen] of process [me]; [gen > 0] rebuilds from
   the store image (the caller runs [recover]). *)
let start_node m ~me ~gen =
  let alive = ref true in
  let trace, trace_oc = open_trace m ~me ~gen in
  let net =
    Livenet.create ~jitter:(0.0, 0.0)
      ~seq_base:(gen * 1_000_000)
      ~loop:m.loop ~dir:m.dir ~me ~n
      ~seed:(Int64.add m.seed (Int64.of_int (1 + me + (gen * n))))
      ()
  in
  let store = Store.open_ (Worker.store_dir ~dir:m.dir ~me) in
  let sctx = Span.create ~tracer:trace ~now:(fun () -> Loop.now m.loop) ~pid:me () in
  let image =
    if gen = 0 then None
    else
      Some
        (Spans.with_ Spans.Store (fun () ->
             {
               Process.im_log = Store.load_log store;
               im_checkpoints = Store.load_checkpoints store;
               im_tokens = Store.load_tokens store;
             }))
  in
  let proc =
    Process.create_rt ~rt:(runtime m alive trace)
      ~net:(transport m ~me sctx net)
      ~app:m.app ~id:me ~n ~config:m.config ~tracer:m.hooks
      ~stable:(stable m sctx store) ?restore:image
      ~on_output:(fun ~pid ~seq x -> m.on_output ~pid ~seq x)
      ~next_uid:(uid_gen ~gen ~me) ()
  in
  Span.set_version sctx (fun () -> Process.version proc);
  Store.write_gen store gen;
  m.nodes.(me) <- Some { alive; net; store; proc; trace; trace_oc };
  proc

let start_all m =
  for me = 0 to n - 1 do
    ignore (start_node m ~me ~gen:0)
  done

let stat k l = Option.value ~default:0 (List.assoc_opt k l)

(* Abandon the incarnation (a crash, or the end of the run). *)
let stop_node m me =
  match m.nodes.(me) with
  | None -> ()
  | Some inc ->
      inc.alive := false;
      let c = Report.add_process_counters m.counts (Process.counters inc.proc) in
      let net = Livenet.stats inc.net and st = Store.stats inc.store in
      m.counts <-
        {
          c with
          retransmits = c.retransmits + stat "retransmits" net;
          send_errors = c.send_errors + stat "send_errors" net;
          store_written = c.store_written + stat "bytes_written" st;
          store_read = c.store_read + stat "bytes_read" st;
        };
      Livenet.close inc.net;
      Store.close inc.store;
      if m.telemetry then Trace.close inc.trace;
      Option.iter close_out inc.trace_oc;
      m.nodes.(me) <- None

let stop_all m =
  for me = 0 to n - 1 do
    stop_node m me
  done

(* Build the mesh as a timed set-up, scaled by the speed of the file
   and socket calls it mostly consists of. *)
let set_up w m =
  Window.setup w ~slowness:(fun () -> Timing.syscall_slowness n) (fun () ->
      start_all m)

(* Set-ups beyond the one per round, so that the set-up median rests on
   enough samples: a mesh built and torn down with nothing run on it. *)
let set_ups = 30

let time_set_ups w ~name ~seed ~config ~telemetry =
  for i = 1 to set_ups do
    let dir = Timing.fresh_dir (Printf.sprintf "%s.s%d" name i) in
    let m = create ~dir ~seed ~config ~telemetry ~hooks:Types.null_tracer in
    set_up w m;
    stop_all m;
    Timing.rm_rf dir
  done

let totals m =
  {
    m.counts with
    trace_events = m.trace_events;
    trace_bytes = m.trace_bytes;
    truncates = m.truncates;
  }

let pump m = Probe.pump m.loop

let inject m me msg =
  match m.nodes.(me) with
  | Some inc -> Spans.with_ Spans.Handler (fun () -> Process.inject inc.proc msg)
  | None -> invalid_arg "Mesh.inject: process is down"

(* All chains may converge on one receiver in a burst, so the window
   stays below Linux's default net.unix.max_dgram_qlen (10): past it a
   datagram is refused (EAGAIN) and Livenet drops it. *)
let outstanding = 8

(* --- mesh_steady ----------------------------------------------------- *)

(* Fault-free and closed-loop: [outstanding] chains in flight, each
   output injecting the next chain. Work is done in rounds of [chains]
   chains on a fresh mesh, so every round (and every commit compared)
   runs on logs of the same length and the heap stays bounded; the
   in-memory log is never reclaimed in this configuration. *)
let steady ~seed ~seconds ~scale =
  let chains = max (2 * outstanding) (int_of_float (40_000.0 *. scale)) in
  let w = Window.create () in
  let deliver = Timing.Latency.create () and output = Timing.Latency.create () in
  let delivered = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let counts = ref Report.no_counts in
  let rounds = ref 0 and lost = ref 0 and duplicated = ref 0 in
  let retained = ref Float.nan in
  let expected =
    Chain.expected_counts ~n ~seed:(Int64.to_int seed) ~hops
      (List.init chains (fun c -> (c, c mod n)))
  in
  let round k =
    let hooks = Probe.latency_tracer ~deliver ~delivered in
    let injected_at = Float.Array.make chains 0.0 in
    let outputs = Array.make chains 0 in
    let next = ref 0 and completed = ref 0 in
    let dir = Timing.fresh_dir (Printf.sprintf "mesh_steady.r%d" k) in
    let m = create ~dir ~seed ~config:live_config ~telemetry:false ~hooks in
    let base = Timing.live_mb () in
    let inject_next () =
      let c = !next in
      if c < chains then begin
        incr next;
        Float.Array.set injected_at c (Timing.now ());
        inject m (c mod n) { Chain.chain = c; hops }
      end
    in
    m.on_output <-
      (fun ~pid:_ ~seq:_ msg ->
        Spans.with_ Spans.Bench (fun () ->
            let c = msg.Chain.chain in
            if outputs.(c) = 0 then begin
              incr completed;
              Timing.Latency.add output
                (Timing.now () -. Float.Array.get injected_at c)
            end;
            outputs.(c) <- outputs.(c) + 1;
            Loop.schedule m.loop ~delay:0.0 inject_next));
    set_up w m;
    let before = !delivered in
    Window.start w;
    for _ = 1 to outstanding do
      inject_next ()
    done;
    let last = ref (Timing.now ()) and seen = ref 0 in
    while !completed < chains && Timing.now () -. !last < 5.0 do
      pump m;
      if !completed <> !seen then begin
        seen := !completed;
        last := Timing.now ()
      end
    done;
    Window.stop w ~msgs:(!delivered - before);
    Timing.Latency.cut deliver ~slow:w.Window.slow;
    Timing.Latency.cut output ~slow:w.Window.slow;
    if k = 0 then retained := Report.retained_since base;
    lost := !lost + (chains - !completed);
    Array.iter (fun k -> if k > 1 then duplicated := !duplicated + k - 1) outputs;
    Array.iteri
      (fun me node ->
        match node with
        | Some inc ->
            let got = (Process.state inc.proc).Chain.count in
            if got <> expected.(me) then
              problem "mesh_steady round %d: process %d handled %d messages, expected %d" k
                me got expected.(me)
        | None -> ())
      m.nodes;
    stop_all m;
    counts := Report.add_counts !counts (totals m);
    Timing.rm_rf dir;
    incr rounds
  in
  time_set_ups w ~name:"mesh_steady" ~seed ~config:live_config ~telemetry:false;
  while w.Window.wall < seconds do
    round !rounds
  done;
  let c = { !counts with msgs = !delivered } in
  let attempted = chains * !rounds in
  if !lost > 0 then problem "mesh_steady: %d chains lost" !lost;
  if !duplicated > 0 then problem "mesh_steady: %d duplicate outputs" !duplicated;
  if c.send_errors > 0 then problem "mesh_steady: %d send errors" c.send_errors;
  if c.delivered <> hops * attempted then
    problem "mesh_steady: %d deliveries, expected %d" c.delivered (hops * attempted);
  {
    Report.attempted;
    failed = !lost + !duplicated;
    e2e = Report.end_to_end ~w ~deliver ~output ~retained:!retained;
    layers = (if !Spans.tracing then Report.per_layer c w else []);
    extra =
      Report.extras ~w ~deliver ~output
      @ [
          Report.m "peak_heap_mb" "MB" (Timing.peak_heap_mb ());
          Report.m "rounds" "count" (float_of_int !rounds);
          Report.m "chains_per_round" "count" (float_of_int chains);
          Report.m "lost_frac" "ratio" (float_of_int !lost /. float_of_int attempted);
          Report.m "livenet.send_errors" "count" (float_of_int c.send_errors);
        ];
    problems = List.rev !problems;
  }

(* --- mesh_crash ------------------------------------------------------ *)

let rate = 250.0
let round_s = 2.0

(* Where in a round the three crashes fall (victims 1, 2, 3; process 0
   never crashes), as fractions of the round. *)
let crash_points = [ 0.2; 0.45; 0.7 ]

(* A chain not committed [retry_after] seconds after it was submitted is
   submitted again, as a client would: Data frames are fire-and-forget,
   and an injection dies with a crashed incarnation's volatile log. *)
let retry_after = 1.0
let drain_cap = 5.0

type wait = {
  w_origin : int;
  w_ver : int;
  w_start : float;
  mutable w_peers : int list;  (** live peers yet to handle the token *)
}

(* Open loop at [rate] chains/s, offered by a Generator process, with
   output commit and the system's JSONL tracing on, in rounds of
   [round_s] seconds on a fresh mesh, each with the same three crashes at
   the same offsets: every round (and every commit compared) recovers
   from logs and send histories of the same length. A round ends once
   every chain has committed. *)
let crash ~seed ~seconds ~scale =
  let config = { live_config with commit_outputs = true } in
  let len = Float.min round_s seconds in
  let per_round = max 1 (int_of_float (rate *. scale *. len)) in
  let due c = float_of_int c /. (rate *. scale) in
  let w = Window.create ~load_bound:true () in
  let deliver = Timing.Latency.create () and output = Timing.Latency.create () in
  let lag = Samples.create () and local = Samples.create () in
  let system = Samples.create () and rebuild_t = Samples.create () in
  let delivered = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let counts = ref Report.no_counts in
  let rounds = ref 0 and crashes = ref 0 and retried = ref 0 in
  let lost = ref 0 and duplicated = ref 0 and unfinished = ref 0 in
  let retained = ref Float.nan in
  let round r =
    let hooks = Probe.latency_tracer ~deliver ~delivered in
    let commits = Array.make per_round 0 in
    let dir = Timing.fresh_dir (Printf.sprintf "mesh_crash.r%d" r) in
    let m = create ~dir ~seed ~config ~telemetry:true ~hooks in
    let committed = ref 0 and start = ref 0.0 in
    m.on_output <-
      (fun ~pid:_ ~seq:_ msg ->
        Spans.with_ Spans.Bench (fun () ->
            let c = msg.Chain.chain in
            if commits.(c) = 0 then begin
              incr committed;
              Timing.Latency.add output (Timing.now () -. (!start +. due c))
            end;
            commits.(c) <- commits.(c) + 1));
    let waits = ref [] in
    let settle () =
      waits :=
        List.filter
          (fun wt ->
            wt.w_peers <> []
            || begin
                 Samples.add system (Timing.now () -. wt.w_start);
                 false
               end)
          !waits
    in
    let leave pid = List.iter (fun wt -> wt.w_peers <- List.filter (( <> ) pid) wt.w_peers) in
    m.on_token <-
      (fun ~pid (tk : Types.token) ->
        leave pid
          (List.filter (fun wt -> wt.w_origin = tk.origin && wt.w_ver = tk.ver) !waits);
        settle ());
    let rebuild me =
      Spans.with_ Spans.Recovery (fun () ->
          let t0 = Timing.now () in
          let gen = m.gens.(me) + 1 in
          m.gens.(me) <- gen;
          let proc = start_node m ~me ~gen in
          let t1 = Timing.now () in
          Process.recover proc;
          Samples.add rebuild_t (t1 -. t0);
          Samples.add local (Timing.now () -. t0);
          let peers =
            List.filter (fun j -> j <> me && m.nodes.(j) <> None) (List.init n Fun.id)
          in
          waits :=
            { w_origin = me; w_ver = Process.version proc - 1; w_start = t0; w_peers = peers }
            :: !waits;
          settle ())
    in
    let crash_node me =
      Spans.with_ Spans.Recovery (fun () ->
          if m.nodes.(me) <> None then begin
            stop_node m me;
            incr crashes;
            leave me !waits;
            settle ();
            Loop.schedule m.loop ~delay:0.05 (fun () -> rebuild me)
          end)
    in
    (* Submissions, oldest first, for the retry scan. *)
    let submitted = Queue.create () in
    let rr = ref 0 in
    let submit c =
      let rec live p = if m.nodes.(p) <> None then p else live ((p + 1) mod n) in
      let p = live (!rr mod n) in
      incr rr;
      Queue.push (c, Timing.now ()) submitted;
      inject m p { Chain.chain = c; hops }
    in
    let rec retry () =
      Spans.with_ Spans.Bench (fun () ->
          let now = Timing.now () in
          let rec scan () =
            match Queue.peek_opt submitted with
            | Some (c, at) when at +. retry_after <= now ->
                ignore (Queue.pop submitted);
                if commits.(c) = 0 then begin
                  incr retried;
                  submit c
                end;
                scan ()
            | _ -> ()
          in
          scan ());
      Loop.schedule m.loop ~delay:0.1 retry
    in
    let gen =
      Generator.spawn ~loop:m.loop ~dir ~count:per_round ~due ~on_submit:(fun c l ->
          Samples.add lag l;
          submit c)
    in
    let base = Timing.live_mb () in
    set_up w m;
    let before = !delivered in
    Window.start w;
    start := Timing.now ();
    Generator.go gen ~start:!start;
    List.iteri
      (fun k f -> Loop.schedule m.loop ~delay:(f *. len) (fun () -> crash_node (1 + k)))
      crash_points;
    retry ();
    while Timing.now () -. !start < len do
      pump m
    done;
    Window.stop w ~msgs:(!delivered - before);
    (* Drain: no new chains; flush and gossip frontiers so pending
       outputs commit, and keep resubmitting lost chains. *)
    let rec gossip () =
      Array.iter
        (Option.iter (fun inc ->
             Process.flush_now inc.proc;
             Process.share_frontier inc.proc))
        m.nodes;
      Loop.schedule m.loop ~delay:0.25 gossip
    in
    gossip ();
    let drain_end = Timing.now () +. drain_cap in
    while (!committed < per_round || !waits <> []) && Timing.now () < drain_end do
      pump m
    done;
    Generator.finish gen;
    if r = 0 then retained := Report.retained_since base;
    stop_all m;
    Timing.Latency.cut deliver ~slow:w.Window.slow;
    (* Set by the flush, gossip and resubmission timers, not by the
       host's speed. *)
    Timing.Latency.cut output ~slow:1.0;
    counts := Report.add_counts !counts (totals m);
    lost := !lost + (per_round - !committed);
    unfinished := !unfinished + List.length !waits;
    Array.iter (fun k -> if k > 1 then duplicated := !duplicated + k - 1) commits;
    (* Correctness, untimed: the round's merged per-incarnation traces
       must lint clean under the live rule set. *)
    let merged = Filename.concat dir "merged.jsonl" in
    let _, torn = Merge.run ~dir ~out:merged in
    if torn > 0 then problem "mesh_crash round %d: %d unparsable trace lines" r torn;
    (match Check.Lint.run ~only:(Worker.live_check_rules Worker.Dg) merged with
    | Error e -> problem "mesh_crash round %d: lint: %s" r e
    | Ok rep ->
        if Check.Lint.errors rep > 0 then begin
          List.iteri
            (fun i v -> if i < 5 then Format.eprintf "%a@." Check.pp_violation v)
            rep.Check.Lint.violations;
          problem "mesh_crash round %d: %d lint errors" r (Check.Lint.errors rep)
        end);
    Timing.rm_rf dir;
    incr rounds
  in
  time_set_ups w ~name:"mesh_crash" ~seed ~config ~telemetry:true;
  while w.Window.wall < seconds do
    round !rounds
  done;
  let attempted = per_round * !rounds in
  let c = { !counts with msgs = !delivered } in
  if !lost > 0 then problem "mesh_crash: %d of %d chains never committed" !lost attempted;
  if c.rollbacks > (n - 1) * c.failures then
    problem "mesh_crash: %d rollbacks for %d failures" c.rollbacks c.failures;
  let lag_p50, lag_p99 =
    match Samples.quantiles lag [ 0.5; 0.99 ] with
    | [ a; b ] -> (a *. 1e3, b *. 1e3)
    | _ -> assert false
  in
  (* A generator that ran late offered another load than the one
     specified. The check needs ten samples beyond the p99. *)
  if Samples.length lag >= 1000 && lag_p99 >= 1.0 then
    problem "mesh_crash: generator lag p99 %.3f ms" lag_p99;
  let ms name s p = Report.m name "ms" (List.hd (Samples.quantiles s [ p ]) *. 1e3) in
  let count name x = Report.m name "count" (float_of_int x) in
  {
    Report.attempted;
    failed = !lost;
    e2e = Report.end_to_end ~w ~deliver ~output ~retained:!retained;
    layers = (if !Spans.tracing then Report.per_layer c w else []);
    extra =
      Report.extras ~w ~deliver ~output
      @ [
          Report.m "peak_heap_mb" "MB" (Timing.peak_heap_mb ());
          count "rounds" !rounds;
          count "crashes" !crashes;
          Report.m "lost_frac" "ratio" (float_of_int !lost /. float_of_int attempted);
          count "chains_resubmitted" !retried;
          count "outputs_committed_twice" !duplicated;
          ms "recovery_local_p50_ms" local 0.5;
          ms "recovery_local_p75_ms" local 0.75;
          ms "recovery_system_p50_ms" system 0.5;
          ms "recovery_system_p75_ms" system 0.75;
          ms "recovery.rebuild_p50_ms" rebuild_t 0.5;
          count "recovery.unfinished" !unfinished;
          Report.m "gen.lag_p50_ms" "ms" lag_p50;
          Report.m "gen.lag_p99_ms" "ms" lag_p99;
          count "livenet.retransmits" c.retransmits;
          count "livenet.send_errors" c.send_errors;
        ];
    problems = List.rev !problems;
  }
