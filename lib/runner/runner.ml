module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Counters = Optimist_util.Stats.Counters
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Oracle = Optimist_oracle.Oracle
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Check = Optimist_check.Check
module Registry = Optimist_protocols.Registry

type check_mode = No_check | Check | Check_strict

type params = {
  protocol : Registry.id;
  n : int;
  seed : int64;
  pattern : Traffic.pattern;
  rate : float;
  duration : float;
  hops : int;
  faults : Schedule.fault list;
  ordering : Network.ordering;
  drop : float;  (** Data-message loss probability *)
  dup : float;  (** Data-message duplication probability *)
  with_oracle : bool;
  trace : Trace.t;
  check : check_mode;
}

let default_params =
  {
    protocol = Registry.Dg;
    n = 4;
    seed = 1L;
    pattern = Traffic.Uniform;
    rate = 0.05;
    duration = 500.0;
    hops = 6;
    faults = [];
    ordering = Network.Reorder;
    drop = 0.0;
    dup = 0.0;
    with_oracle = false;
    trace = Trace.null;
    check = No_check;
  }

type report = {
  r_protocol : string;
  r_params : params;
  r_counters : (string * int) list;
  r_net : (string * int) list;
  r_digests : int list;
  r_events : int;
  r_virtual_end : float;
  r_oracle_stats : (int * int * int) option;
  r_violations : string list;
  r_check : Check.violation list;
  r_registry : Metrics.registry;
}

let counter r name =
  match List.assoc_opt name r.r_counters with Some v -> v | None -> 0

let merge_counters dumps =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun dump ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt acc k with
          | Some r -> r := !r + v
          | None -> Hashtbl.add acc k (ref v))
        dump)
    dumps;
  Hashtbl.fold (fun k r l -> (k, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type sim = {
  engine : Engine.t;
  registry : Metrics.registry;
  oracle : Oracle.t option;
  alive : int -> bool;
  crash : int -> unit;
  digest : int -> int;
  incarnation : int -> int option;
  counters : unit -> (string * int) list;
  net_stats : unit -> (string * int) list;
  verdict : unit -> Check.violation list * string list;
}

let label kind pid =
  { Engine.l_kind = kind; l_pid = pid; l_src = -1; l_info = "" }

let build ?sim ~protocol ~seed ~net ~pattern ~trace ~check ~oracle schedule =
  let name = Registry.name protocol in
  let module P = (val Option.value sim ~default:(Registry.entry protocol).sim) in
  if oracle then Result.iter_error invalid_arg (Registry.ground_truth protocol);
  let n = net.Network.n in
  (* The sanitizer is a trace sink, so checking forces a live recorder
     even when the caller did not ask for tracing. *)
  let monitor =
    if check then Some (Check.Monitor.create ~rules:P.check_rules ()) else None
  in
  let trace = if check && trace == Trace.null then Trace.create () else trace in
  Option.iter (fun m -> Trace.attach trace (Check.Monitor.sink m)) monitor;
  let oracle = if oracle then Some (Oracle.create ~n) else None in
  let tracer = Option.map Oracle.tracer oracle in
  let engine = Engine.create ~seed () in
  Engine.set_tracer engine trace;
  let network = Network.create engine net in
  let registry = Metrics.registry () in
  let uid = ref 0 in
  let next_uid () = incr uid; !uid in
  let app = Traffic.app ~n pattern in
  let scope process = Metrics.Scope.create ~registry ~protocol:name ~process () in
  let procs =
    Array.init n (fun id ->
        P.create ~engine ~net:network ~app ~id ~n ?tracer ~metrics:(scope id)
          ~next_uid ())
  in
  let at time kind pid f =
    ignore (Engine.schedule_at engine ~label:(label kind pid) time f)
  in
  Schedule.apply schedule
    ~inject:(fun ~at:t ~pid msg ->
      at t "inject" pid (fun () -> P.inject procs.(pid) msg))
    ~crash:(fun ~at:t ~pid -> at t "crash" pid (fun () -> P.fail procs.(pid)))
    ~partition:(fun ~at:t ~groups ->
      at t "net" (-1) (fun () -> Network.partition network groups))
    ~heal:(fun ~at:t -> at t "net" (-1) (fun () -> Network.heal network));
  let sanitizer m =
    (* The monitor reconstructed failure/rollback counts from the event
       stream alone; the oracle observed the real states (OPT014). *)
    Option.iter
      (fun o ->
        Check.Monitor.cross_check m ~n ~failures:(Oracle.failures o)
          ~rollbacks_of:(Oracle.rollbacks_of o))
      oracle;
    let violations = Check.Monitor.finish m in
    Metrics.Scope.incr ~by:(List.length violations) (scope (-1))
      "check.violations";
    violations
  in
  let ground_truth o =
    List.map (fun v -> v.Oracle.check ^ ": " ^ v.Oracle.detail) (Oracle.check o)
  in
  {
    engine;
    registry;
    oracle;
    alive = (fun pid -> P.alive procs.(pid));
    crash = (fun pid -> P.fail procs.(pid));
    digest = (fun pid -> Traffic.digest (P.state procs.(pid)));
    incarnation = (fun pid -> P.incarnation procs.(pid));
    counters =
      (fun () -> merge_counters (Array.to_list (Array.map P.counters procs)));
    net_stats = (fun () -> Counters.to_list (Network.stats network));
    verdict =
      (fun () ->
        ( Option.fold ~none:[] ~some:sanitizer monitor,
          Option.fold ~none:[] ~some:ground_truth oracle ));
  }

let setup params =
  let net =
    {
      (Network.default_config ~n:params.n) with
      Network.ordering = params.ordering;
      drop_probability = params.drop;
      duplicate_probability = params.dup;
    }
  in
  let injections =
    Schedule.poisson_injections ~seed:(Int64.add params.seed 7919L)
      ~n:params.n ~rate:params.rate ~duration:params.duration ~hops:params.hops
  in
  build ~protocol:params.protocol ~seed:params.seed ~net
    ~pattern:params.pattern ~trace:params.trace
    ~check:(params.check <> No_check) ~oracle:params.with_oracle
    (Schedule.make ~injections ~faults:params.faults)

let run params =
  let s = setup params in
  Engine.run s.engine;
  let r_check, r_violations = s.verdict () in
  {
    r_protocol = Registry.name params.protocol;
    r_params = params;
    r_counters = s.counters ();
    r_net = s.net_stats ();
    r_digests = List.init params.n s.digest;
    r_events = Engine.events_fired s.engine;
    r_virtual_end = Engine.now s.engine;
    r_oracle_stats = Option.map Oracle.status_counts s.oracle;
    r_violations;
    r_check;
    r_registry = s.registry;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>protocol: %s@,events: %d  virtual end: %.1f@," r.r_protocol
    r.r_events r.r_virtual_end;
  List.iter (fun (k, v) -> Format.fprintf ppf "%-28s %d@," k v) r.r_counters;
  (match r.r_oracle_stats with
  | Some (live, lost, discarded) ->
      Format.fprintf ppf "oracle: live=%d lost=%d discarded=%d@," live lost discarded
  | None -> ());
  List.iter (fun v -> Format.fprintf ppf "VIOLATION %s@," v) r.r_violations;
  List.iter
    (fun v -> Format.fprintf ppf "CHECK %a@," Check.pp_violation v)
    r.r_check;
  Format.fprintf ppf "@]"
