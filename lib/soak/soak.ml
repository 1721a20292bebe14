module Registry = Optimist_protocols.Registry
module Plan = Optimist_live.Plan
module Supervisor = Optimist_live.Supervisor
module Link = Optimist_live.Link
module Check = Optimist_check.Check
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Report = Optimist_obs.Report

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

(* Supervisor ground truth: every final incarnation must exit clean (a
   worker that raised leaves a trace that may still lint clean), and the
   supervisor counted every SIGKILL it actually delivered; each one
   respawns an incarnation whose recovery emits exactly one Failure and
   one Restart record. A merged trace with fewer of either lost a
   recovery. *)
let oracle_check ~n (r : Supervisor.result) =
  let failures = ref 0 and restarts = ref 0 in
  Trace.iter_file r.merged ~f:(fun ~line:_ -> function
    | Ok e -> (
        match e.Trace.kind with
        | Trace.Failure -> incr failures
        | Trace.Restart _ -> incr restarts
        | _ -> ())
    | Error _ -> ());
  if r.clean_exits < n then
    Some
      (Printf.sprintf "only %d of %d final incarnations exited clean"
         r.clean_exits n)
  else if !failures < r.crashes then
    Some
      (Printf.sprintf "%d crash(es) delivered but only %d failure record(s)"
         r.crashes !failures)
  else if !restarts < r.crashes then
    Some
      (Printf.sprintf "%d crash(es) delivered but only %d restart record(s)"
         r.crashes !restarts)
  else None

(* The one conversion from a scenario to a live run, for every fabric. *)
let plan_of_scenario (s : Scenario.t) =
  match Registry.of_string s.sc_protocol with
  | None -> Error (Printf.sprintf "unknown protocol %S" s.sc_protocol)
  | Some protocol ->
      Ok
        {
          Plan.default with
          protocol;
          n = s.sc_n;
          seed = Scenario.run_seed s;
          duration = s.sc_duration;
          settle = s.sc_settle;
          rate = s.sc_rate;
          hops = s.sc_hops;
          kills =
            List.map (fun (k : Scenario.kill) -> (k.kl_at, k.kl_pid)) s.sc_kills;
          net_faults =
            {
              Link.drop_rate = s.sc_drop;
              dup_rate = s.sc_dup;
              partitions =
                List.map
                  (fun (p : Scenario.partition) ->
                    {
                      Link.pt_start = p.pr_start;
                      pt_stop = p.pr_stop;
                      pt_island = p.pr_island;
                    })
                  s.sc_partitions;
            };
          restart_delay = s.sc_restart_delay;
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

type runner = dir:string -> Plan.t -> (Supervisor.result, string) result

(* Run the scenario on [runner] (single-host UDS by default, or a TCP
   cluster), then judge it: lint the merged trace against the protocol's
   declared rules and cross-check the delivered-SIGKILL count. *)
let run_scenario ?(runner = Supervisor.run) ~dir s =
  let ( let* ) = Result.bind in
  let* plan = plan_of_scenario s in
  let* r = runner ~dir plan in
  let* lint =
    Check.Lint.run ~only:(Registry.live_check_rules plan.protocol) r.merged
  in
  Ok
    {
      rr_crashes = r.crashes;
      rr_events = r.events;
      rr_violations = count_by_rule lint.Check.Lint.violations;
      rr_oracle = oracle_check ~n:plan.n r;
      rr_merged = r.merged;
    }

(* Greedy shrink descent: re-run each strict simplification; the first
   one that still fails becomes the new current scenario. Every live run
   costs wall-clock seconds, so the descent is budgeted in runs, not
   candidates. *)
let shrink ?runner ~dir ~budget s =
  let runs = ref 0 in
  let rec go current =
    let rec try_candidates = function
      | [] -> current
      | c :: rest ->
          if !runs >= budget then current
          else begin
            incr runs;
            match run_scenario ?runner ~dir c with
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

let run_campaign ?runner ?(shrink_budget = 12)
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
        let result = run_scenario ?runner ~dir s in
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
                shrink ?runner
                  ~dir:(Filename.concat out "shrink")
                  ~budget:shrink_budget s
              in
              (* Re-run the minimal scenario in its own directory so the
                 kept artifacts (merged trace, run.json) match it. *)
              let mdir = Filename.concat out (Printf.sprintf "minimal.%d" s.sc_index) in
              ignore (run_scenario ?runner ~dir:mdir m);
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
