module Engine = Optimist_sim.Engine
module Prng = Optimist_util.Prng
module Counters = Optimist_util.Stats.Counters
module Trace = Optimist_obs.Trace

type traffic = Data | Control

type ordering = Fifo | Reorder

type latency = Constant of float | Uniform of float * float | Exponential of float

type config = {
  n : int;
  ordering : ordering;
  latency : latency;
  control_latency : latency option;
  drop_probability : float;
  duplicate_probability : float;
}

let default_config ~n =
  {
    n;
    ordering = Reorder;
    latency = Uniform (1.0, 10.0);
    control_latency = None;
    drop_probability = 0.0;
    duplicate_probability = 0.0;
  }

type 'a envelope = {
  src : int;
  dst : int;
  sent_at : Engine.time;
  traffic : traffic;
  payload : 'a;
}

type 'a t = {
  engine : Engine.t;
  cfg : config;
  rng : Prng.t;
  handlers : ('a envelope -> unit) option array;
  (* Next available delivery instant per (src, dst) channel, for FIFO. *)
  channel_clock : Engine.time array array;
  mutable group_of : int array option; (* partition group per endpoint *)
  down : bool array;
  (* Traffic blocked by a partition, waiting for heal. *)
  mutable partition_held : 'a envelope list;
  (* Traffic addressed to a down endpoint, waiting for it to come up. *)
  down_held : 'a envelope list array;
  (* The delivery label of each (src, dst, lane), built once: labels are
     immutable, so every delivery on a channel shares its label. Kept as
     the option [Engine.schedule_at ?label] takes, so passing it allocates
     nothing either. *)
  labels : Engine.label option array;
  stats : Counters.t;
  (* Per-message counters, resolved once. *)
  sent_data : Counters.counter;
  sent_control : Counters.counter;
  delivered_data : Counters.counter;
  delivered_control : Counters.counter;
}

let traffic_label = function Data -> "data" | Control -> "control"

let lane_index = function Data -> 0 | Control -> 1

let label_index n ~src ~dst traffic = (((src * n) + dst) * 2) + lane_index traffic

let create engine cfg =
  if cfg.n <= 0 then invalid_arg "Network.create: n must be positive";
  let stats = Counters.create () in
  let n = cfg.n in
  (* From n = 12 on this array is over 256 words, so it is allocated in
     the major heap, and its young first label makes that allocation run a
     minor collection first. That collection lands here, before any event
     is queued, where it has little to promote. *)
  let labels =
    Array.init (2 * n * n) (fun i ->
        let channel = i / 2 in
        Some
          {
            Engine.l_kind = "deliver";
            l_pid = channel mod n;
            l_src = channel / n;
            l_info = traffic_label (if i mod 2 = 0 then Data else Control);
          })
  in
  {
    engine;
    cfg;
    rng = Prng.split (Engine.rng engine);
    handlers = Array.make cfg.n None;
    channel_clock = Array.make_matrix cfg.n cfg.n 0.0;
    group_of = None;
    down = Array.make cfg.n false;
    partition_held = [];
    down_held = Array.make cfg.n [];
    labels;
    stats;
    sent_data = Counters.counter stats "sent.data";
    sent_control = Counters.counter stats "sent.control";
    delivered_data = Counters.counter stats "delivered.data";
    delivered_control = Counters.counter stats "delivered.control";
  }

let config t = t.cfg

let stats t = t.stats

let set_handler t id f =
  if id < 0 || id >= t.cfg.n then invalid_arg "Network.set_handler: bad id";
  t.handlers.(id) <- Some f

let draw_latency t traffic =
  let model =
    match (traffic, t.cfg.control_latency) with
    | Control, Some m -> m
    | (Control | Data), _ -> t.cfg.latency
  in
  match model with
  | Constant d -> d
  | Uniform (lo, hi) -> Prng.uniform_float t.rng ~lo ~hi
  | Exponential mean -> Prng.exponential t.rng ~mean

let reachable t src dst =
  match t.group_of with
  | None -> true
  | Some groups -> groups.(src) = groups.(dst)

(* Network events are infrastructure, not protocol state, so they go out
   as [Custom] records with pid = the endpoint they concern (or -1 for
   fabric-wide ones). Callers guard with [trace_on] before building the
   detail string. *)
let trace_on t = Trace.enabled (Engine.tracer t.engine)

let trace_emit t ~pid name detail =
  Trace.emit (Engine.tracer t.engine)
    {
      at = Engine.now t.engine;
      pid;
      ver = 0;
      clock = [||];
      kind = Custom { name; detail };
    }

let deliver t env =
  if t.down.(env.dst) then begin
    Counters.incr t.stats "held.down";
    if trace_on t then
      trace_emit t ~pid:env.dst "net.held_down"
        (Printf.sprintf "src=%d %s" env.src (traffic_label env.traffic));
    t.down_held.(env.dst) <- env :: t.down_held.(env.dst)
  end
  else begin
    Counters.bump
      (match env.traffic with
      | Data -> t.delivered_data
      | Control -> t.delivered_control);
    match t.handlers.(env.dst) with
    | Some f -> f env
    | None ->
        failwith (Printf.sprintf "Network: no handler installed for endpoint %d" env.dst)
  end

(* Schedule one copy of [env] for delivery, honouring FIFO channel clocks. *)
let schedule_delivery t env =
  let label = t.labels.(label_index t.cfg.n ~src:env.src ~dst:env.dst env.traffic) in
  let lat = draw_latency t env.traffic in
  let arrival =
    match t.cfg.ordering with
    | Reorder -> Engine.now t.engine +. lat
    | Fifo ->
        let floor = t.channel_clock.(env.src).(env.dst) in
        let at = Float.max (Engine.now t.engine +. lat) floor in
        (* Strictly increasing per channel so ties cannot reorder. *)
        t.channel_clock.(env.src).(env.dst) <- at +. 1e-9;
        at
  in
  ignore (Engine.schedule_at t.engine ?label arrival (fun () -> deliver t env))

let send_envelope t env =
  Counters.bump
    (match env.traffic with Data -> t.sent_data | Control -> t.sent_control);
  if not (reachable t env.src env.dst) then begin
    Counters.incr t.stats "held.partition";
    if trace_on t then
      trace_emit t ~pid:env.src "net.held_partition"
        (Printf.sprintf "dst=%d %s" env.dst (traffic_label env.traffic));
    t.partition_held <- env :: t.partition_held
  end
  else begin
    match env.traffic with
    | Control -> schedule_delivery t env
    | Data ->
        if Prng.bernoulli t.rng t.cfg.drop_probability then begin
          Counters.incr t.stats "dropped.data";
          if trace_on t then
            trace_emit t ~pid:env.src "net.drop"
              (Printf.sprintf "dst=%d" env.dst)
        end
        else begin
          schedule_delivery t env;
          if Prng.bernoulli t.rng t.cfg.duplicate_probability then begin
            Counters.incr t.stats "duplicated.data";
            if trace_on t then
              trace_emit t ~pid:env.src "net.dup"
                (Printf.sprintf "dst=%d" env.dst);
            schedule_delivery t env
          end
        end
  end

let send t ?(traffic = Data) ~src ~dst payload =
  if src < 0 || src >= t.cfg.n || dst < 0 || dst >= t.cfg.n then
    invalid_arg "Network.send: endpoint out of range";
  send_envelope t
    { src; dst; sent_at = Engine.now t.engine; traffic; payload }

let broadcast t ?(traffic = Data) ~src payload =
  for dst = 0 to t.cfg.n - 1 do
    if dst <> src then send t ~traffic ~src ~dst payload
  done

let partition t groups =
  let assignment = Array.make t.cfg.n (-1) in
  List.iteri
    (fun g members ->
      List.iter
        (fun id ->
          if id < 0 || id >= t.cfg.n then
            invalid_arg "Network.partition: endpoint out of range";
          assignment.(id) <- g)
        members)
    groups;
  (* Endpoints not named form an implicit final group. *)
  let implicit = List.length groups in
  Array.iteri (fun id g -> if g = -1 then assignment.(id) <- implicit) assignment;
  t.group_of <- Some assignment;
  if trace_on t then
    trace_emit t ~pid:(-1) "net.partition"
      (Printf.sprintf "groups=%d" (implicit + 1))

let heal t =
  t.group_of <- None;
  let held = List.rev t.partition_held in
  t.partition_held <- [];
  if trace_on t then
    trace_emit t ~pid:(-1) "net.heal"
      (Printf.sprintf "released=%d" (List.length held));
  List.iter (fun env -> send_envelope t env) held

let set_down t id = t.down.(id) <- true

let set_up t ?(drop_held_data = false) id =
  t.down.(id) <- false;
  let held = List.rev t.down_held.(id) in
  t.down_held.(id) <- [];
  let keep env =
    match env.traffic with
    | Control -> true
    | Data -> not drop_held_data
  in
  List.iter
    (fun env ->
      if keep env then schedule_delivery t env
      else begin
        Counters.incr t.stats "dropped.data";
        if trace_on t then
          trace_emit t ~pid:id "net.drop"
            (Printf.sprintf "src=%d held" env.src)
      end)
    held
