module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Trace = Optimist_obs.Trace
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Check = Optimist_check.Check
module Registry = Optimist_protocols.Registry
module Runner = Optimist_runner.Runner

(* A model-checking configuration: one small protocol instance plus a
   traffic script and a crash budget. Everything the checker explores is
   a function of this record — no wall clock, no uncontrolled
   randomness — so a (cfg, decision sequence) pair fully identifies an
   execution and can be serialized as a counterexample. *)
type cfg = {
  protocol : Registry.id;  (** a protocol or one of its variants *)
  n : int;  (** processes, ids [0, n) *)
  msgs : int;  (** app messages injected at t=0, round-robin over pids *)
  hops : int;  (** forwarding hops per injected message *)
  crashes : int;  (** crash-injection budget for the explorer *)
}

let default_cfg =
  { protocol = Registry.Dg; n = 3; msgs = 2; hops = 2; crashes = 1 }

let validate cfg =
  if cfg.n < 2 || cfg.n > 8 then Error "Model: procs must be in [2, 8]"
  else if cfg.msgs < 1 then Error "Model: at least one injected message"
  else if cfg.hops < 0 then Error "Model: hops must not be negative"
  else if cfg.crashes < 0 then Error "Model: crashes must not be negative"
  else Ok ()

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
  let mutant = (Registry.entry cfg.protocol).mutant in
  let dup = Option.fold ~none:false ~some:(fun m -> m.Registry.dup) mutant in
  {
    (Network.default_config ~n:cfg.n) with
    Network.ordering = Network.Reorder;
    latency = Network.Constant 1.0;
    control_latency = Some (Network.Constant 1.0);
    drop_probability = 0.0;
    duplicate_probability = (if dup then 1.0 else 0.0);
  }

let violation_string (v : Check.violation) =
  Printf.sprintf "%s %s: %s" v.Check.rule.Check.id v.Check.rule.Check.slug
    v.Check.message

let build ?sink cfg =
  Result.iter_error invalid_arg (validate cfg);
  let trace = Trace.create () in
  Option.iter (Trace.attach trace) sink;
  let injections =
    List.init cfg.msgs (fun i ->
        { Schedule.at = 0.0; pid = i mod cfg.n; key = i + 1; hops = cfg.hops })
  in
  let s =
    Runner.build ~sim:(Registry.entry cfg.protocol).mc ~protocol:cfg.protocol
      ~seed:1L ~net:(mc_net_config cfg) ~pattern:Traffic.Ring ~trace ~check:true
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
