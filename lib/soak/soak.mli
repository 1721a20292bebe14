(** Seeded live soak harness ([recsim live soak]).

    From a single campaign seed, generate randomized fault scenarios
    ({!Scenario}), run each against the live runtime ({!Optimist_live}),
    lint the merged trace against the protocol's declared sanitizer
    rules, cross-check the supervisor's ground truth (every delivered
    SIGKILL must produce a Failure and a Restart record), and shrink any
    failing scenario to a minimal reproducer. The campaign writes a
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

val assess :
  crashes:int ->
  events:int ->
  merged:string ->
  Scenario.t ->
  (run_result, string) result
(** Judge a finished run: lint [merged] against the scenario protocol's
    {!Optimist_protocols.Registry.live_check_rules} and oracle-check the crash
    count. Shared by {!run_scenario} and alternative runners (the
    cluster's multi-host runner) that produce the same triple. *)

val net_faults : Scenario.t -> Optimist_live.Link.faults
(** The scenario's network-fault plan (drops, dups, partitions). *)

val run_scenario : dir:string -> Scenario.t -> (run_result, string) result
(** One live run of the scenario in [dir] (cleared first), linted
    against {!Optimist_protocols.Registry.live_check_rules} for its protocol.
    [Error] when the scenario cannot run at all (unknown protocol,
    invalid parameters, unreadable trace) — never for violations. *)

val shrink :
  ?runner:(dir:string -> Scenario.t -> (run_result, string) result) ->
  dir:string ->
  budget:int ->
  Scenario.t ->
  Scenario.t
(** Greedy descent over {!Scenario.shrink_candidates}: re-run each
    strict simplification (at most [budget] live runs total) and keep
    descending while the failure reproduces. Returns the smallest
    scenario that still failed — the input itself when nothing simpler
    does. [runner] (default {!run_scenario}) executes each candidate. *)

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
  ?runner:(dir:string -> Scenario.t -> (run_result, string) result) ->
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
    [log] receives one-line progress messages. [runner] (default
    {!run_scenario}, the single-host live runtime) executes each
    scenario — the cluster runner substitutes its multi-host variant. *)
