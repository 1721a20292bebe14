module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Types = Optimist_core.Types
module System = Optimist_core.System
module Process = Optimist_core.Process
module Oracle = Optimist_oracle.Oracle
module Traffic = Optimist_workload.Traffic
module Check = Optimist_check.Check
module Protocol = Optimist_core.Protocol
module Registry = Optimist_protocols.Registry
module Pessimistic = Optimist_protocols.Pessimistic

(* A model-checking configuration: one small protocol instance plus a
   traffic script and a crash budget. Everything the checker explores is
   a function of this record — no wall clock, no uncontrolled
   randomness — so a (cfg, decision sequence) pair fully identifies an
   execution and can be serialized as a counterexample. *)
type cfg = {
  protocol : Registry.id;
  n : int;  (** processes, ids [0, n) *)
  msgs : int;  (** app messages injected at t=0, round-robin over pids *)
  hops : int;  (** forwarding hops per injected message *)
  crashes : int;  (** crash-injection budget for the explorer *)
  mutation : string;  (** [""] for the unmodified protocol *)
}

let default_cfg =
  { protocol = Registry.Dg; n = 3; msgs = 2; hops = 2; crashes = 1;
    mutation = "" }

type mutant = {
  mu_name : string;
  mu_protocol : Registry.id;
  mu_rule : string;  (** the sanitizer rule the mutant must trip *)
  mu_doc : string;
}

(* Deliberately broken protocol variants the checker must catch. Each
   maps to a single code-level mutation (lib/core/process.ml or the
   pessimistic baseline) and to the offline-checkable rule it violates,
   so a replayed counterexample trace also fails [recsim check --strict]. *)
let mutants =
  [
    { mu_name = "skip-piggyback"; mu_protocol = Registry.Dg;
      mu_rule = "OPT004";
      mu_doc = "process 0 sends a zeroed FTVC on the 0->1 edge" };
    { mu_name = "skip-dedup"; mu_protocol = Registry.Dg;
      mu_rule = "OPT003";
      mu_doc = "duplicate-uid suppression disabled (explored under a \
                duplicating network)" };
    { mu_name = "eager-rollback"; mu_protocol = Registry.Dg;
      mu_rule = "OPT011";
      mu_doc = "rolls back on every token, detected orphan or not" };
    { mu_name = "ack-before-fsync"; mu_protocol = Registry.Pessimist;
      mu_rule = "OPT013";
      mu_doc = "pessimistic logger delivers before the entry is stable" };
  ]

let find_mutant name = List.find_opt (fun m -> m.mu_name = name) mutants

let validate cfg =
  if cfg.n < 2 || cfg.n > 8 then
    invalid_arg "Model: procs must be in [2, 8]";
  if cfg.msgs < 1 then invalid_arg "Model: at least one injected message";
  if cfg.mutation <> "" then
    match find_mutant cfg.mutation with
    | None ->
        invalid_arg (Printf.sprintf "Model: unknown mutation %S" cfg.mutation)
    | Some m ->
        if m.mu_protocol <> cfg.protocol then
          invalid_arg
            (Printf.sprintf "Model: mutation %S applies to %s, not %s"
               cfg.mutation
               (Registry.name m.mu_protocol)
               (Registry.name cfg.protocol))

(* One rebuildable execution of the configuration. The checker replays
   decisions against a fresh instance for every explored schedule
   (stateless model checking — no snapshot/restore). *)
type instance = {
  i_engine : Engine.t;
  i_alive : int -> bool;
  i_crash : int -> unit;
  i_digest : unit -> int;  (** observable-state hash, for fingerprinting *)
  i_finish : unit -> string list;
      (** end-of-execution verdict: sanitizer + oracle violations,
          rendered as stable strings (no timestamps, so violation sets
          compare across interleavings) *)
}

(* Determinism note: latencies are [Constant] so no RNG is drawn per
   delivery, and drop/dup probabilities are 0 or 1 so the bernoulli
   draws that do happen have interleaving-independent outcomes. All
   injections land at t=0, making the first instant the first genuine
   branch point. *)
let mc_net_config ~n ~dup =
  {
    (Network.default_config ~n) with
    Network.ordering = Network.Reorder;
    latency = Network.Constant 1.0;
    control_latency = Some (Network.Constant 1.0);
    drop_probability = 0.0;
    duplicate_probability = dup;
  }

(* Short periods relative to the 1.0 delivery latency so timer events
   genuinely race with deliveries inside small exploration depths. *)
let mc_dg_config ~hold ~mutation =
  {
    Types.default_config with
    Types.flush_interval = 3.0;
    checkpoint_interval = 11.0;
    restart_delay = 5.0;
    hold_undeliverable = hold;
    mutation;
  }

let mc_pessimistic_config ~mutation =
  {
    Pessimistic.sync_write_latency = 0.5;
    checkpoint_interval = 4.0;
    restart_delay = 5.0;
    ack_before_fsync = (mutation = "ack-before-fsync");
  }

let violation_string (v : Check.violation) =
  Printf.sprintf "%s %s: %s" v.Check.rule.Check.id v.Check.rule.Check.slug
    v.Check.message

let inject_label pid = { Engine.l_kind = "inject"; l_pid = pid; l_src = -1;
                         l_info = "" }

(* A recorder feeding the protocol's sanitizer rules (and [sink]). *)
let monitored_trace ?sink cfg =
  let trace = Trace.create () in
  let monitor =
    Check.Monitor.create ~rules:(Registry.check_rules cfg.protocol) ()
  in
  Trace.attach trace (Check.Monitor.sink monitor);
  Option.iter (Trace.attach trace) sink;
  (trace, monitor)

let build_damani ?sink cfg ~hold =
  let mutation =
    match cfg.mutation with
    | "" -> Types.M_none
    | "skip-piggyback" -> Types.M_drop_piggyback
    | "skip-dedup" -> Types.M_skip_dedup
    | "eager-rollback" -> Types.M_eager_rollback
    | m -> invalid_arg (Printf.sprintf "Model: mutation %S is not a DG mutation" m)
  in
  let dup = if mutation = Types.M_skip_dedup then 1.0 else 0.0 in
  let oracle = Oracle.create ~n:cfg.n in
  let trace, monitor = monitored_trace ?sink cfg in
  let sys =
    System.create ~seed:1L ~net_config:(mc_net_config ~n:cfg.n ~dup)
      ~config:(mc_dg_config ~hold ~mutation) ~tracer:(Oracle.tracer oracle)
      ~trace ~n:cfg.n
      ~app:(Traffic.app ~n:cfg.n Traffic.Ring)
      ()
  in
  for i = 0 to cfg.msgs - 1 do
    System.inject_at sys ~at:0.0 ~pid:(i mod cfg.n)
      (Traffic.fresh ~key:(i + 1) ~hops:cfg.hops)
  done;
  let proc pid = System.process sys pid in
  {
    i_engine = System.engine sys;
    i_alive = (fun pid -> Process.alive (proc pid));
    i_crash = (fun pid -> Process.fail (proc pid));
    i_digest =
      (fun () ->
        let acc = ref 0 in
        for pid = 0 to cfg.n - 1 do
          let p = proc pid in
          acc :=
            Hashtbl.hash
              (!acc, Traffic.digest (Process.state p), Process.alive p,
               Process.version p)
        done;
        !acc);
    i_finish =
      (fun () ->
        Check.Monitor.cross_check monitor ~n:cfg.n
          ~failures:(Oracle.failures oracle)
          ~rollbacks_of:(Oracle.rollbacks_of oracle);
        let sanitizer =
          List.map violation_string (Check.Monitor.finish monitor)
        in
        let ground_truth =
          List.map
            (fun v -> Printf.sprintf "oracle %s: %s" v.Oracle.check v.Oracle.detail)
            (Oracle.check oracle)
        in
        sanitizer @ ground_truth);
  }

(* Baselines share one sim surface; only the module differs. *)
let build_baseline ?sink cfg ~name sim =
  let module P = (val sim : Protocol.SIM) in
  let engine = Engine.create ~seed:1L () in
  let trace, monitor = monitored_trace ?sink cfg in
  Engine.set_tracer engine trace;
  let net = Network.create engine (mc_net_config ~n:cfg.n ~dup:0.0) in
  let registry = Metrics.registry () in
  let uid = ref 0 in
  let next_uid () = incr uid; !uid in
  let app = Traffic.app ~n:cfg.n Traffic.Ring in
  let procs =
    Array.init cfg.n (fun id ->
        let metrics =
          Metrics.Scope.create ~registry ~protocol:name ~process:id ()
        in
        P.create ~engine ~net ~app ~id ~n:cfg.n ~metrics ~next_uid ())
  in
  for i = 0 to cfg.msgs - 1 do
    let pid = i mod cfg.n in
    let msg = Traffic.fresh ~key:(i + 1) ~hops:cfg.hops in
    ignore
      (Engine.schedule_at engine ~label:(inject_label pid) 0.0 (fun () ->
           P.inject procs.(pid) msg))
  done;
  {
    i_engine = engine;
    i_alive = (fun pid -> P.alive procs.(pid));
    i_crash = (fun pid -> P.fail procs.(pid));
    i_digest =
      (fun () ->
        Array.fold_left
          (fun acc p -> Hashtbl.hash (acc, Traffic.digest (P.state p), P.alive p))
          0 procs);
    i_finish =
      (fun () -> List.map violation_string (Check.Monitor.finish monitor));
  }

(* The pessimistic baseline runs under the checker's short-period config,
   which the ack-before-fsync mutant extends. *)
let mc_sim cfg sim =
  if cfg.protocol <> Registry.Pessimist then sim
  else
    (module struct
      include Pessimistic

      let create ~engine ~net ~app ~id ~n ?config:_ ?metrics ~next_uid () =
        Pessimistic.create ~engine ~net ~app ~id ~n
          ~config:(mc_pessimistic_config ~mutation:cfg.mutation)
          ?metrics ~next_uid ()
    end : Protocol.SIM)

let build ?sink cfg =
  validate cfg;
  let e = Registry.entry cfg.protocol in
  match e.Registry.sim with
  | Registry.System { hold } -> build_damani ?sink cfg ~hold
  | Registry.Sim sim ->
      build_baseline ?sink cfg ~name:e.Registry.name (mc_sim cfg sim)
