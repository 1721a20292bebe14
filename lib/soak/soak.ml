module Worker = Optimist_live.Worker
module Registry = Optimist_protocols.Registry
module Supervisor = Optimist_live.Supervisor
module Livenet = Optimist_live.Livenet
module Check = Optimist_check.Check
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Report = Optimist_obs.Report
module Traffic = Optimist_workload.Traffic

(* The soak harness: run seeded scenarios against the live runtime, lint
   every merged trace against the protocol's declared sanitizer rules,
   cross-check the supervisor's ground truth (every SIGKILL must produce
   a recovery in the trace), and on failure shrink to a minimal
   reproducer. The campaign's JSONL summary is the artifact CI keeps. *)

type run_result = {
  rr_crashes : int;
  rr_events : int;
  rr_violations : (string * int) list;  (** rule id -> count, id order *)
  rr_oracle : string option;  (** ground-truth mismatch, when any *)
  rr_merged : string;  (** merged trace path *)
}

let failed r = r.rr_violations <> [] || r.rr_oracle <> None

(* Supervisor ground truth: the supervisor counted every SIGKILL it
   actually delivered; each one respawns an incarnation whose recovery
   emits exactly one Failure and one Restart record. A merged trace with
   fewer of either lost a recovery. *)
let oracle_check ~crashes merged =
  let failures = ref 0 and restarts = ref 0 in
  Trace.iter_file merged ~f:(fun ~line:_ -> function
    | Ok e -> (
        match e.Trace.kind with
        | Trace.Failure -> incr failures
        | Trace.Restart _ -> incr restarts
        | _ -> ())
    | Error _ -> ());
  if !failures < crashes then
    Some
      (Printf.sprintf "%d crash(es) delivered but only %d failure record(s)"
         crashes !failures)
  else if !restarts < crashes then
    Some
      (Printf.sprintf "%d crash(es) delivered but only %d restart record(s)"
         crashes !restarts)
  else None

let supervisor_cfg ~dir (s : Scenario.t) =
  match Registry.of_string s.Scenario.sc_protocol with
  | None ->
      Error (Printf.sprintf "unknown protocol %S" s.Scenario.sc_protocol)
  | Some protocol ->
      Ok
        {
          Supervisor.dir;
          n = s.sc_n;
          protocol;
          seed = Scenario.run_seed s;
          duration = s.sc_duration;
          settle = s.sc_settle;
          rate = s.sc_rate;
          hops = s.sc_hops;
          pattern = Traffic.Uniform;
          faults =
            List.map (fun k -> (k.Scenario.kl_at, k.Scenario.kl_pid)) s.sc_kills;
          net_faults =
            {
              Livenet.drop_rate = s.sc_drop;
              dup_rate = s.sc_dup;
              partitions =
                List.map
                  (fun p ->
                    {
                      Livenet.pt_start = p.Scenario.pr_start;
                      pt_stop = p.Scenario.pr_stop;
                      pt_island = p.Scenario.pr_island;
                    })
                  s.sc_partitions;
            };
          restart_delay = s.sc_restart_delay;
          jitter = Supervisor.default_cfg.Supervisor.jitter;
          telemetry = Worker.Full;
          link = None;
        }

let count_by_rule violations =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v : Check.violation) ->
      let id = v.rule.Check.id in
      Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id)))
    violations;
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) tbl []
  |> List.sort compare

(* Judge a finished run: lint the merged trace against the protocol's
   declared rules and cross-check the crash count. Shared by the
   single-host runner below and the cluster runner, which produces the
   same (crashes, events, merged) triple from remote agents. *)
let assess ~crashes ~events ~merged (s : Scenario.t) =
  let rules =
    match Registry.of_string s.Scenario.sc_protocol with
    | Some p -> Registry.live_check_rules p
    | None -> []
  in
  match Check.Lint.run ~only:rules merged with
  | Error msg -> Error msg
  | Ok lint ->
      Ok
        {
          rr_crashes = crashes;
          rr_events = events;
          rr_violations = count_by_rule lint.Check.Lint.violations;
          rr_oracle = oracle_check ~crashes merged;
          rr_merged = merged;
        }

let run_scenario ~dir (s : Scenario.t) =
  match supervisor_cfg ~dir s with
  | Error _ as e -> e
  | Ok cfg -> (
      match Supervisor.run cfg with
      | exception Invalid_argument msg -> Error msg
      | r ->
          assess ~crashes:r.Supervisor.crashes ~events:r.Supervisor.events
            ~merged:r.Supervisor.merged s)

(* Greedy shrink descent: re-run each strict simplification; the first
   one that still fails becomes the new current scenario. Every live run
   costs wall-clock seconds, so the descent is budgeted in runs, not
   candidates. *)
let shrink ?(runner = run_scenario) ~dir ~budget s =
  let runs = ref 0 in
  let rec go current =
    let rec try_candidates = function
      | [] -> current
      | c :: rest ->
          if !runs >= budget then current
          else begin
            incr runs;
            match runner ~dir c with
            | Ok r when failed r -> go c
            | Ok _ | Error _ -> try_candidates rest
          end
    in
    try_candidates (Scenario.shrink_candidates current)
  in
  go s

(* --- campaign --- *)

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

let summarize outcomes =
  let failed_n = ref 0 and errors = ref 0 and crashes = ref 0 in
  let events = ref 0 in
  let rules = Hashtbl.create 8 in
  List.iter
    (fun o ->
      match o.oc_result with
      | Error _ -> incr errors
      | Ok r ->
          if failed r then incr failed_n;
          crashes := !crashes + r.rr_crashes;
          events := !events + r.rr_events;
          List.iter
            (fun (id, n) ->
              Hashtbl.replace rules id
                (n + Option.value ~default:0 (Hashtbl.find_opt rules id)))
            r.rr_violations)
    outcomes;
  {
    sm_outcomes = outcomes;
    sm_failed = !failed_n;
    sm_errors = !errors;
    sm_crashes = !crashes;
    sm_events = !events;
    sm_rule_counts =
      Hashtbl.fold (fun id n acc -> (id, n) :: acc) rules [] |> List.sort compare;
  }

(* One campaign.jsonl line per scenario. Pure over the outcome, so the
   determinism property (same seed, same outcomes -> byte-identical
   summary) is testable without live processes. *)
let outcome_json o =
  let base = [ ("scenario", Scenario.to_json o.oc_scenario) ] in
  let body =
    match o.oc_result with
    | Error msg -> [ ("status", Json.String "error"); ("error", Json.String msg) ]
    | Ok r ->
        [
          ( "status",
            Json.String (if failed r then "violation" else "ok") );
          ("crashes", Json.Int r.rr_crashes);
          ("events", Json.Int r.rr_events);
          ( "violations",
            Json.Obj (List.map (fun (id, n) -> (id, Json.Int n)) r.rr_violations)
          );
          ( "oracle",
            match r.rr_oracle with
            | None -> Json.Null
            | Some msg -> Json.String msg );
        ]
  in
  let minimal =
    match o.oc_minimal with
    | None -> []
    | Some m ->
        [
          ("minimal", Scenario.to_json m);
          ("replay", Json.String (Scenario.replay_token m));
        ]
  in
  Json.Obj (base @ body @ minimal)

let summary_json sm =
  Json.Obj
    [
      ("record", Json.String "campaign");
      ("scenarios", Json.Int (List.length sm.sm_outcomes));
      ("failed", Json.Int sm.sm_failed);
      ("errors", Json.Int sm.sm_errors);
      ("crashes", Json.Int sm.sm_crashes);
      ("events", Json.Int sm.sm_events);
      ( "violations",
        Json.Obj (List.map (fun (id, n) -> (id, Json.Int n)) sm.sm_rule_counts)
      );
    ]

(* Recovery-latency quantiles over every merged trace the campaign
   produced, via the offline profiler. Wall-clock latencies are not
   deterministic, so this is a separate record from the campaign
   summary. *)
let profile_json outcomes =
  let merged =
    List.filter_map
      (fun o ->
        match o.oc_result with
        | Ok r when Sys.file_exists r.rr_merged -> Some r.rr_merged
        | _ -> None)
      outcomes
  in
  if merged = [] then None
  else
    match Report.of_files merged with
    | Error _ -> None
    | Ok t ->
        Some
          (Json.Obj
             [
               ("record", Json.String "profile");
               ( "protocols",
                 Json.List
                   (List.map
                      (fun (p : Report.proto) ->
                        Json.Obj
                          [
                            ("protocol", Json.String p.Report.protocol);
                            ( "recoveries",
                              Json.Int (List.length p.Report.recoveries) );
                            ("latency_p50", Json.Float p.Report.latency_p50);
                            ("latency_p95", Json.Float p.Report.latency_p95);
                            ("latency_max", Json.Float p.Report.latency_max);
                            ("replayed", Json.Int p.Report.replayed_total);
                            ("bytes_reread", Json.Int p.Report.bytes_total);
                          ])
                      t.Report.protocols) );
             ])

let campaign_file out = Filename.concat out "campaign.jsonl"

let minimal_file out index =
  Filename.concat out (Printf.sprintf "minimal.%d.json" index)

let write_campaign ~out summary =
  let oc = open_out (campaign_file out) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun o ->
          output_string oc (Json.to_string (outcome_json o));
          output_char oc '\n')
        summary.sm_outcomes;
      output_string oc (Json.to_string (summary_json summary));
      output_char oc '\n';
      match profile_json summary.sm_outcomes with
      | Some j ->
          output_string oc (Json.to_string j);
          output_char oc '\n'
      | None -> ())

let run_campaign ?(runner = run_scenario) ?(shrink_budget = 12)
    ?(log = fun _ -> ()) ~out ~plan () =
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let outcomes =
    List.map
      (fun (s : Scenario.t) ->
        let dir = Filename.concat out (Printf.sprintf "s%d" s.sc_index) in
        log
          (Printf.sprintf "scenario %d: %s n=%d kills=%d drop=%g dup=%g%s"
             s.sc_index s.sc_protocol s.sc_n (List.length s.sc_kills)
             s.sc_drop s.sc_dup
             (if s.sc_partitions <> [] then " partition" else ""));
        let result = runner ~dir s in
        let minimal =
          match result with
          | Ok r when failed r ->
              log
                (Printf.sprintf "scenario %d FAILED (%s); shrinking..."
                   s.sc_index
                   (match r.rr_oracle with
                   | Some msg -> msg
                   | None ->
                       String.concat ","
                         (List.map
                            (fun (id, n) -> Printf.sprintf "%s x%d" id n)
                            r.rr_violations)));
              let m =
                shrink ~runner
                  ~dir:(Filename.concat out "shrink")
                  ~budget:shrink_budget s
              in
              (* Re-run the minimal scenario in its own directory so the
                 kept artifacts (merged trace, run.json) match it. *)
              let mdir = Filename.concat out (Printf.sprintf "minimal.%d" s.sc_index) in
              ignore (runner ~dir:mdir m);
              let path = minimal_file out s.sc_index in
              let oc = open_out path in
              output_string oc (Json.to_string (Scenario.to_json m));
              output_char oc '\n';
              close_out oc;
              log
                (Printf.sprintf "scenario %d minimal reproducer: %s (replay: %s)"
                   s.sc_index path path);
              Some m
          | _ -> None
        in
        { oc_scenario = s; oc_result = result; oc_minimal = minimal })
      plan
  in
  let summary = summarize outcomes in
  write_campaign ~out summary;
  summary
