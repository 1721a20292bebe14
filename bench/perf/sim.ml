(* The discrete-event simulator at n = 32: no sockets, no disk. Per-event
   cost is the protocol's O(n) clock and history work plus the engine's
   queue and the GC of a log that only grows. Every time reported here is
   host time. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Process = Optimist_core.Process
module Transport = Optimist_core.Transport
module Types = Optimist_core.Types
module Schedule = Optimist_workload.Schedule
module Oracle = Optimist_oracle.Oracle

let n = 32
let hops = 6
let rate = 0.05

type plan = {
  seed : int64;
  injections : (float * int) array;  (** (time, pid); the index is the chain id *)
  crashes : (float * int) list;
}

(* Poisson injections at [rate] per process per unit over [6 000 *
   scale] units, and random crashes in the middle 80 % of the run. *)
let plan ~seed ~scale =
  let duration = 6_000.0 *. scale in
  let failures = max 1 (int_of_float (Float.round (8.0 *. scale))) in
  {
    seed;
    injections =
      Schedule.poisson_injections ~seed:(Int64.add seed 7919L) ~n ~rate ~duration
        ~hops
      |> List.map (fun (i : Schedule.injection) -> (i.at, i.pid))
      |> Array.of_list;
    crashes =
      Schedule.random_crashes ~seed:(Int64.add seed 104729L) ~n ~failures
        ~window:(0.1 *. duration, 0.9 *. duration)
      |> List.filter_map (function
           | Schedule.Crash { at; pid } -> Some (at, pid)
           | Schedule.Partition _ | Schedule.Heal _ -> None);
  }

let app p = Chain.app ~n ~seed:(Int64.to_int p.seed)

let label kind pid = { Engine.l_kind = kind; l_pid = pid; l_src = -1; l_info = "" }

(* Built the way System.create builds a run (same engine seed, network,
   uid counter and creation order, same event labels and scheduling
   order as System.inject_at / System.fail_at), over the bench probes. *)
let build p ~tracer ~on_output ~on_inject =
  let engine = Engine.create ~seed:p.seed () in
  let net = Network.create engine (Network.default_config ~n) in
  let uid = ref 0 in
  let next_uid () =
    incr uid;
    !uid
  in
  let rt = Probe.runtime (Transport.of_engine engine) in
  let net = Probe.transport (Transport.of_network net) in
  let app = app p in
  let procs =
    Array.init n (fun id ->
        Process.create_rt ~rt ~net ~app ~id ~n ~tracer ~on_output ~next_uid ())
  in
  Array.iteri
    (fun c (at, pid) ->
      ignore
        (Engine.schedule_at engine ~label:(label "inject" pid) at (fun () ->
             on_inject c;
             Spans.with_ Spans.Handler (fun () ->
                 Process.inject procs.(pid) { Chain.chain = c; hops }))))
    p.injections;
  List.iter
    (fun (at, pid) ->
      ignore
        (Engine.schedule_at engine ~label:(label "crash" pid) at (fun () ->
             Process.fail procs.(pid))))
    p.crashes;
  (engine, procs)

let digests procs = Array.map (fun p -> Chain.digest (Process.state p)) procs

let run_seed seed i = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int i)

let workload ~seed ~seconds ~scale =
  let w = Window.create () in
  let deliver = Timing.Latency.create () and output = Timing.Latency.create () in
  let delivered = ref 0 in
  let runs = ref 0 and chains = ref 0 in
  let counts = ref Report.no_counts in
  let first = ref None and retained = ref Float.nan in
  while w.Window.wall < seconds do
    let p = plan ~seed:(run_seed seed !runs) ~scale in
    let k = Array.length p.injections in
    let injected_at = Float.Array.make k 0.0 and seen = Bytes.make k '\000' in
    let on_output ~pid:_ ~seq:_ (msg : Chain.msg) =
      Spans.with_ Spans.Bench (fun () ->
          let c = msg.Chain.chain in
          if Bytes.get seen c = '\000' then begin
            Bytes.set seen c '\001';
            Timing.Latency.add output (Timing.now () -. Float.Array.get injected_at c)
          end)
    in
    let on_inject c = Float.Array.set injected_at c (Timing.now ()) in
    let tracer = Probe.latency_tracer ~deliver ~delivered in
    let base = Timing.live_mb () in
    let engine, procs = Window.setup w (fun () -> build p ~tracer ~on_output ~on_inject) in
    let before = !delivered in
    Window.start w;
    Spans.with_ Spans.Runtime (fun () -> Engine.run engine);
    Window.stop w ~msgs:(!delivered - before);
    Timing.Latency.cut deliver ~slow:w.Window.slow;
    Timing.Latency.cut output ~slow:w.Window.slow;
    if !runs = 0 then begin
      retained := Report.retained_since base;
      first := Some (p, digests procs)
    end;
    counts :=
      Array.fold_left
        (fun c proc -> Report.add_process_counters c (Process.counters proc))
        {
          !counts with
          Report.engine_events = !counts.engine_events + Engine.events_fired engine;
        }
        procs;
    chains := !chains + k;
    incr runs
  done;
  (* Correctness, untimed: the first run again, with the ground-truth
     oracle watching instead of the latency hooks. *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match !first with
  | None -> ()
  | Some (p, timed) ->
      let oracle = Oracle.create ~n in
      let engine, procs =
        build p ~tracer:(Oracle.tracer oracle)
          ~on_output:(fun ~pid:_ ~seq:_ _ -> ())
          ~on_inject:ignore
      in
      Engine.run engine;
      List.iter
        (fun v -> problem "sim_n32: oracle: %s: %s" v.Oracle.check v.Oracle.detail)
        (Oracle.check oracle);
      if digests procs <> timed then
        problem "sim_n32: the oracle rerun's digests differ from the timed run's");
  let c = { !counts with msgs = !delivered } in
  if c.rollbacks > (n - 1) * c.failures then
    problem "sim_n32: %d rollbacks for %d failures" c.rollbacks c.failures;
  {
    Report.attempted = !runs;
    failed = (if !problems = [] then 0 else 1);
    e2e = Report.end_to_end ~w ~deliver ~output ~retained:!retained;
    layers = (if !Spans.tracing then Report.per_layer c w else []);
    extra =
      Report.extras ~w ~deliver ~output
      @ [
          Report.m "peak_heap_mb" "MB" (Timing.peak_heap_mb ());
          Report.m "runs" "count" (float_of_int !runs);
          Report.m "chains" "count" (float_of_int !chains);
          Report.m "engine.events_per_s" "1/s"
            (float_of_int c.engine_events /. w.Window.wall);
          Report.m "engine.us_per_event" "us"
            (w.Window.wall /. float_of_int (max 1 c.engine_events) *. 1e6);
        ];
    problems = List.rev !problems;
  }
