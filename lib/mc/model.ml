module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Trace = Optimist_obs.Trace
module Types = Optimist_core.Types
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Check = Optimist_check.Check
module Protocol = Optimist_core.Protocol
module Registry = Optimist_protocols.Registry
module Pessimistic = Optimist_protocols.Pessimistic
module Runner = Optimist_runner.Runner

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
let mc_net_config cfg =
  {
    (Network.default_config ~n:cfg.n) with
    Network.ordering = Network.Reorder;
    latency = Network.Constant 1.0;
    control_latency = Some (Network.Constant 1.0);
    drop_probability = 0.0;
    duplicate_probability = (if cfg.mutation = "skip-dedup" then 1.0 else 0.0);
  }

(* The checker runs Damani-Garg and the pessimistic logger at short
   periods relative to the 1.0 delivery latency, so timer events
   genuinely race with deliveries inside small exploration depths; their
   mutants extend these configs. The other baselines run at their
   defaults. *)
let mc_sim cfg : (module Protocol.SIM) =
  match cfg.protocol with
  | Registry.Dg | Registry.Dg_nohold ->
      Protocol.with_config
        (module Registry.Dg_sim)
        {
          Types.default_config with
          Types.flush_interval = 3.0;
          checkpoint_interval = 11.0;
          restart_delay = 5.0;
          hold_undeliverable = cfg.protocol = Registry.Dg;
          mutation =
            (match cfg.mutation with
            | "skip-piggyback" -> Types.M_drop_piggyback
            | "skip-dedup" -> Types.M_skip_dedup
            | "eager-rollback" -> Types.M_eager_rollback
            | _ -> Types.M_none);
        }
  | Registry.Pessimist ->
      Protocol.with_config
        (module Pessimistic)
        {
          Pessimistic.sync_write_latency = 0.5;
          checkpoint_interval = 4.0;
          restart_delay = 5.0;
          ack_before_fsync = cfg.mutation = "ack-before-fsync";
        }
  | _ -> (Registry.entry cfg.protocol).Registry.sim

let violation_string (v : Check.violation) =
  Printf.sprintf "%s %s: %s" v.Check.rule.Check.id v.Check.rule.Check.slug
    v.Check.message

let build ?sink cfg =
  validate cfg;
  let trace = Trace.create () in
  Option.iter (Trace.attach trace) sink;
  let injections =
    List.init cfg.msgs (fun i ->
        { Schedule.at = 0.0; pid = i mod cfg.n; key = i + 1; hops = cfg.hops })
  in
  let s =
    Runner.build ~sim:(mc_sim cfg) ~protocol:cfg.protocol ~seed:1L
      ~net:(mc_net_config cfg) ~pattern:Traffic.Ring ~trace ~check:true
      ~oracle:(Result.is_ok (Registry.ground_truth cfg.protocol))
      (Schedule.make ~injections ~faults:[])
  in
  {
    i_engine = s.engine;
    i_alive = s.alive;
    i_crash = s.crash;
    i_digest =
      (fun () ->
        let acc = ref 0 in
        for pid = 0 to cfg.n - 1 do
          acc :=
            Hashtbl.hash (!acc, s.digest pid, s.alive pid, s.incarnation pid)
        done;
        !acc);
    i_finish =
      (fun () ->
        let sanitizer, ground_truth = s.verdict () in
        List.map violation_string sanitizer
        @ List.map (fun v -> "oracle " ^ v) ground_truth);
  }
