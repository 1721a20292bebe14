module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Counters = Optimist_util.Stats.Counters
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Types = Optimist_core.Types
module System = Optimist_core.System
module Process = Optimist_core.Process
module Oracle = Optimist_oracle.Oracle
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Check = Optimist_check.Check
module Protocol = Optimist_core.Protocol
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

let injections params =
  Schedule.poisson_injections ~seed:(Int64.add params.seed 7919L) ~n:params.n
    ~rate:params.rate ~duration:params.duration ~hops:params.hops

let net_config params =
  {
    (Network.default_config ~n:params.n) with
    Network.ordering = params.ordering;
    drop_probability = params.drop;
    duplicate_probability = params.dup;
  }

(* The Damani-Garg variants run through System (they share lib/core). *)
let run_damani params ~hold ~monitor =
  let oracle = if params.with_oracle then Some (Oracle.create ~n:params.n) else None in
  let tracer = Option.map Oracle.tracer oracle in
  let config = { Types.default_config with Types.hold_undeliverable = hold } in
  let app = Traffic.app ~n:params.n params.pattern in
  let registry = Metrics.registry () in
  let sys =
    System.create ~seed:params.seed ~net_config:(net_config params) ~config
      ?tracer ~trace:params.trace ~registry ~n:params.n ~app ()
  in
  let schedule = Schedule.make ~injections:(injections params) ~faults:params.faults in
  Schedule.apply schedule
    ~inject:(fun ~at ~pid msg -> System.inject_at sys ~at ~pid msg)
    ~crash:(fun ~at ~pid -> System.fail_at sys ~at ~pid)
    ~partition:(fun ~at ~groups -> System.partition_at sys ~at ~groups)
    ~heal:(fun ~at -> System.heal_at sys ~at);
  System.run sys;
  (* Online sanitizer cross-check against the ground-truth timeline:
     the monitor reconstructed failure/rollback counts from the event
     stream alone; the oracle observed the real states (OPT014). *)
  (match (monitor, oracle) with
  | Some m, Some o ->
      Check.Monitor.cross_check m ~n:params.n ~failures:(Oracle.failures o)
        ~rollbacks_of:(Oracle.rollbacks_of o)
  | _ -> ());
  let engine = System.engine sys in
  let dumps = List.map snd (System.counters sys) in
  let history_records =
    Array.fold_left
      (fun acc p -> acc + Process.history_record_count p)
      0 (System.processes sys)
  in
  {
    r_protocol = Registry.name params.protocol;
    r_params = params;
    r_counters = merge_counters ([ ("history_records", history_records) ] :: dumps);
    r_net = Counters.to_list (Network.stats (System.network sys));
    r_digests =
      Array.to_list
        (Array.map (fun p -> Traffic.digest (Process.state p)) (System.processes sys));
    r_events = Engine.events_fired engine;
    r_virtual_end = Engine.now engine;
    r_oracle_stats = Option.map Oracle.status_counts oracle;
    r_violations =
      (match oracle with
      | None -> []
      | Some o ->
          List.map
            (fun v -> v.Oracle.check ^ ": " ^ v.Oracle.detail)
            (Oracle.check o));
    r_check = [];
    r_registry = registry;
  }

(* Generic driver for the baselines, through their shared sim surface. *)
let run_baseline params ~name sim =
  let module P = (val sim : Protocol.SIM) in
  let engine = Engine.create ~seed:params.seed () in
  Engine.set_tracer engine params.trace;
  let net = Network.create engine (net_config params) in
  let registry = Metrics.registry () in
  let uid = ref 0 in
  let next_uid () = incr uid; !uid in
  let app = Traffic.app ~n:params.n params.pattern in
  let procs =
    Array.init params.n (fun id ->
        let metrics =
          Metrics.Scope.create ~registry ~protocol:name ~process:id ()
        in
        P.create ~engine ~net ~app ~id ~n:params.n ~metrics ~next_uid ())
  in
  let schedule = Schedule.make ~injections:(injections params) ~faults:params.faults in
  Schedule.apply schedule
    ~inject:(fun ~at ~pid msg ->
      ignore (Engine.schedule_at engine at (fun () -> P.inject procs.(pid) msg)))
    ~crash:(fun ~at ~pid ->
      ignore (Engine.schedule_at engine at (fun () -> P.fail procs.(pid))))
    ~partition:(fun ~at:_ ~groups:_ -> ())
    ~heal:(fun ~at:_ -> ());
  Engine.run engine;
  {
    r_protocol = name;
    r_params = params;
    r_counters = Metrics.totals registry;
    r_net = [];
    r_digests = Array.to_list (Array.map (fun p -> Traffic.digest (P.state p)) procs);
    r_events = Engine.events_fired engine;
    r_virtual_end = Engine.now engine;
    r_oracle_stats = None;
    r_violations = [];
    r_check = [];
    r_registry = registry;
  }

let dispatch params ~monitor =
  let e = Registry.entry params.protocol in
  match e.Registry.sim with
  | Registry.System { hold } -> run_damani params ~hold ~monitor
  | Registry.Sim sim -> run_baseline params ~name:e.Registry.name sim

let run params =
  match params.check with
  | No_check -> dispatch params ~monitor:None
  | Check | Check_strict ->
      (* The sanitizer is a trace sink, so checking forces a live
         recorder even when the caller did not ask for tracing. *)
      let trace =
        if params.trace == Trace.null then Trace.create () else params.trace
      in
      let monitor =
        Check.Monitor.create ~rules:(Registry.check_rules params.protocol) ()
      in
      Trace.attach trace (Check.Monitor.sink monitor);
      let r = dispatch { params with trace } ~monitor:(Some monitor) in
      let violations = Check.Monitor.finish monitor in
      let scope =
        Metrics.Scope.create ~registry:r.r_registry ~protocol:r.r_protocol
          ~process:(-1) ()
      in
      Metrics.Scope.incr ~by:(List.length violations) scope "check.violations";
      { r with r_check = violations }

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
