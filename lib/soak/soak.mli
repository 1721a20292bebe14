(** Seeded live soak harness ([recsim live soak]).

    From a single campaign seed, generate randomized fault scenarios
    ({!Scenario}), run each against the live runtime ({!Optimist_live}),
    lint the merged trace against the protocol's declared sanitizer
    rules, cross-check the supervisor's ground truth (every final
    incarnation must exit clean, and every delivered SIGKILL must produce
    a Failure and a Restart record), and shrink any failing scenario to a
    minimal reproducer. The campaign writes a
    JSONL summary ([campaign.jsonl]) with one record per scenario, an
    aggregate record, and a recovery-latency profile. *)

type run_result = {
  rr_crashes : int;  (** SIGKILLs actually delivered *)
  rr_events : int;  (** merged trace events *)
  rr_violations : (string * int) list;  (** rule id -> count, id order *)
  rr_oracle : string option;  (** ground-truth mismatch, when any *)
  rr_merged : string;  (** merged trace path *)
}

val failed : run_result -> bool
(** Any lint violation or oracle mismatch. *)

val plan_of_scenario : Scenario.t -> (Optimist_live.Plan.t, string) result
(** The scenario as a live run: its protocol, size, traffic, kills,
    drops, dups and partitions field for field, seeded with
    {!Scenario.run_seed}, full telemetry. [Error] for an unknown
    protocol. *)

type runner =
  dir:string ->
  Optimist_live.Plan.t ->
  (Optimist_live.Supervisor.result, string) result
(** Executes one plan in [dir]: {!Optimist_live.Supervisor.run} on a
    single host, or a TCP cluster run. *)

val run_scenario :
  ?runner:runner -> dir:string -> Scenario.t -> (run_result, string) result
(** One run of the scenario in [dir] (cleared first) on [runner]
    (default {!Optimist_live.Supervisor.run}), linted against
    {!Optimist_protocols.Registry.live_check_rules} for its protocol and
    oracle-checked against its clean exits and delivered SIGKILLs (an
    unclean exit is an oracle mismatch). [Error] when the
    scenario cannot run at all (unknown protocol, invalid parameters,
    unreadable trace) — never for violations. *)

val shrink :
  ?runner:runner -> dir:string -> budget:int -> Scenario.t -> Scenario.t
(** Greedy descent over {!Scenario.shrink_candidates}: re-run each
    strict simplification (at most [budget] runs total) and keep
    descending while the failure reproduces. Returns the smallest
    scenario that still failed — the input itself when nothing simpler
    does. *)

type outcome = {
  oc_scenario : Scenario.t;
  oc_result : (run_result, string) result;
  oc_minimal : Scenario.t option;  (** shrunk reproducer, when failing *)
}

type summary = {
  sm_outcomes : outcome list;
  sm_failed : int;  (** scenarios with violations or oracle mismatches *)
  sm_errors : int;  (** scenarios that could not run at all *)
  sm_crashes : int;
  sm_events : int;
  sm_rule_counts : (string * int) list;  (** rule id -> total, id order *)
}

val summarize : outcome list -> summary

val outcome_json : outcome -> Optimist_obs.Json.t
(** One [campaign.jsonl] record. Pure over the outcome — equal outcomes
    yield byte-identical lines (the determinism property). *)

val summary_json : summary -> Optimist_obs.Json.t
(** The aggregate [campaign.jsonl] record ([{"record":"campaign",...}]).
    Pure over the summary. *)

val campaign_file : string -> string
(** [out]'s campaign summary path ([campaign.jsonl]). *)

val minimal_file : string -> int -> string
(** The minimal-reproducer artifact for a scenario index. *)

val run_campaign :
  ?runner:runner ->
  ?shrink_budget:int ->
  ?log:(string -> unit) ->
  out:string ->
  plan:Scenario.t list ->
  unit ->
  summary
(** Run the whole plan; scenario [i] runs in [out/s<i>]. Failing
    scenarios are shrunk (default budget 12 runs each), the minimal
    scenario is re-run in [out/minimal.<i>] and written to
    [out/minimal.<i>.json], and [out/campaign.jsonl] is written last.
    [log] receives one-line progress messages. Every run, shrink
    candidates included, goes through {!run_scenario} on [runner]. *)
