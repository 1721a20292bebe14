(* recsim: run any implemented recovery protocol on a synthetic workload
   with injected failures, and print normalized metrics.

   Examples:
     dune exec bin/recsim.exe -- run --protocol damani-garg -n 6 \
       --failures 3 --oracle
     dune exec bin/recsim.exe -- run --protocol checkpoint-only -n 8 \
       --failures 2 --rate 0.1
     dune exec bin/recsim.exe -- run --failures 2 --trace out.jsonl
     dune exec bin/recsim.exe -- run --failures 2 --trace out.json \
       --trace-format chrome   # load in Perfetto / about://tracing
     dune exec bin/recsim.exe -- trace out.jsonl --pid 1 --kind rollback
     dune exec bin/recsim.exe -- run --failures 2 --check        # sanitize live
     dune exec bin/recsim.exe -- check out.jsonl --strict       # lint a trace
     dune exec bin/recsim.exe -- compare -n 6 --failures 3
     dune exec bin/recsim.exe -- list *)

module Runner = Optimist_runner.Runner
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Check = Optimist_check.Check
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Network = Optimist_net.Network
module Table = Optimist_util.Table
module Validate = Optimist_util.Validate
module Live = Optimist_live.Supervisor
module Live_worker = Optimist_live.Worker
module Plan = Optimist_live.Plan
module Registry = Optimist_protocols.Registry
module Report = Optimist_obs.Report
module Soak = Optimist_soak.Soak
module Scenario = Optimist_soak.Scenario
module Cluster = Optimist_cluster.Coordinator
module Cluster_agent = Optimist_cluster.Agent
open Cmdliner

(* --- validated numeric conversions ---

   Nonsense values (0 processes, a negative rate, a probability of 3)
   must die at argument parsing with a one-line message, not as an
   exception backtrace out of the simulation. The parsers live in
   Optimist_util.Validate so the table-driven tests exercise exactly the
   strings the CLI prints. *)

let conv_of parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

let int_at_least min = conv_of (Validate.int_at_least min) Format.pp_print_int
let positive_float = conv_of Validate.positive_float Format.pp_print_float

let non_negative_float =
  conv_of Validate.non_negative_float Format.pp_print_float

let probability = conv_of Validate.probability Format.pp_print_float

(* --- shared argument definitions --- *)

let protocol_conv =
  let parse s =
    match Registry.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown protocol %S (see `recsim list')" s))
  in
  let print ppf p = Format.pp_print_string ppf (Registry.name p) in
  Arg.conv (parse, print)

let pattern_conv =
  let parse = function
    | "uniform" -> Ok Traffic.Uniform
    | "ring" -> Ok Traffic.Ring
    | "pipeline" -> Ok Traffic.Pipeline
    | s -> (
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "client-server" -> (
            match
              Validate.int_at_least 1
                (String.sub s (i + 1) (String.length s - i - 1))
            with
            | Ok k -> Ok (Traffic.Client_server k)
            | Error m -> Error (`Msg ("client-server:<servers> " ^ m)))
        | _ ->
            Error
              (`Msg
                "expected uniform | ring | pipeline | client-server:<servers>"))
  in
  let print ppf = function
    | Traffic.Uniform -> Format.pp_print_string ppf "uniform"
    | Traffic.Ring -> Format.pp_print_string ppf "ring"
    | Traffic.Pipeline -> Format.pp_print_string ppf "pipeline"
    | Traffic.Client_server k -> Format.fprintf ppf "client-server:%d" k
  in
  Arg.conv (parse, print)

let n_arg =
  Arg.(
    value
    & opt (int_at_least 2) 4
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes (at least 2).")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let rate_arg =
  Arg.(
    value
    & opt positive_float 0.05
    & info [ "rate" ] ~docv:"RATE"
        ~doc:"Environment injections per process per time unit.")

let duration_arg =
  Arg.(
    value
    & opt positive_float 500.0
    & info [ "duration" ] ~docv:"T" ~doc:"Injection window in virtual time.")

let hops_arg =
  Arg.(
    value
    & opt (int_at_least 0) 6
    & info [ "hops" ] ~docv:"HOPS" ~doc:"Forwarding chain length per stimulus.")

let failures_arg =
  Arg.(
    value
    & opt (int_at_least 0) 0
    & info [ "failures" ] ~docv:"K"
        ~doc:"Random crashes in the middle 80% of the run.")

let drop_arg =
  Arg.(
    value
    & opt probability 0.0
    & info [ "drop" ] ~docv:"P"
        ~doc:"Probability of losing each Data message in transit.")

let dup_arg =
  Arg.(
    value
    & opt probability 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Probability of duplicating each Data message in transit.")

let fifo_arg =
  Arg.(value & flag & info [ "fifo" ] ~doc:"Use FIFO channels (default: reordering).")

let oracle_arg =
  Arg.(
    value
    & flag
    & info [ "oracle" ]
        ~doc:
          "Attach the ground-truth oracle and audit the run (Damani-Garg \
           variants only).")

let pattern_arg =
  Arg.(
    value
    & opt pattern_conv Traffic.Uniform
    & info [ "pattern" ] ~docv:"PATTERN"
        ~doc:"Workload: uniform, ring, pipeline, client-server:<servers>.")

let make_params ?(trace = Trace.null) ?(check = Runner.No_check)
    ?(drop = 0.0) ?(dup = 0.0) protocol n seed rate duration hops failures
    fifo oracle pattern =
  let faults =
    if failures = 0 then []
    else
      Schedule.random_crashes
        ~seed:(Int64.add seed 100L)
        ~n ~failures
        ~window:(0.1 *. duration, 0.9 *. duration)
  in
  {
    Runner.protocol;
    n;
    seed;
    pattern;
    rate;
    duration;
    hops;
    faults;
    ordering = (if fifo then Network.Fifo else Network.Reorder);
    drop;
    dup;
    with_oracle = oracle;
    trace;
    check;
  }

(* Build a recorder writing to [path] (if given), run [f] with it, and
   finalize the file even on failure: the chrome format is only valid
   JSON once the sink is closed. *)
let with_recorder path format f =
  match path with
  | None -> f Trace.null
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "recsim: cannot open trace file: %s\n" msg;
          exit 2
      in
      let sink =
        match format with
        | `Jsonl -> Trace.jsonl_sink (output_string oc)
        | `Chrome -> Trace.chrome_sink (output_string oc)
      in
      let tr = Trace.create () in
      Trace.attach tr sink;
      Fun.protect
        ~finally:(fun () ->
          Trace.close tr;
          close_out oc)
        (fun () -> f tr)

(* --- run --- *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a structured event trace of the run to $(docv).")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace encoding: $(b,jsonl) (one event per line, replayable with \
           `recsim trace') or $(b,chrome) (trace_event JSON, loadable in \
           Perfetto / about://tracing).")

let check_mode_arg =
  Arg.(
    value
    & opt
        ~vopt:(Some `On)
        (some (enum [ ("on", `On); ("strict", `Strict) ]))
        None
    & info [ "check" ] ~docv:"MODE"
        ~doc:
          "Attach the online protocol sanitizer (optimist.check) to the run. \
           Violations are printed and fail the run; with $(b,--check=strict) \
           warnings fail it too.")

let run_cmd =
  let protocol_arg =
    Arg.(
      value
      & opt protocol_conv Registry.Dg
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL" ~doc:"Protocol to run.")
  in
  let action protocol n seed rate duration hops failures fifo oracle pattern
      drop dup trace_file trace_format check_mode =
    let check =
      match check_mode with
      | None -> Runner.No_check
      | Some `On -> Runner.Check
      | Some `Strict -> Runner.Check_strict
    in
    if oracle then
      Result.iter_error
        (fun msg ->
          Printf.eprintf "recsim run: %s\n" msg;
          exit 2)
        (Registry.ground_truth protocol);
    let report =
      with_recorder trace_file trace_format (fun trace ->
          Runner.run
            (make_params ~trace ~check ~drop ~dup protocol n seed rate
               duration hops failures fifo oracle pattern))
    in
    Format.printf "%a@." Runner.pp_report report;
    let check_failed =
      let strict = check = Runner.Check_strict in
      List.exists
        (fun (v : Check.violation) ->
          strict || v.rule.Check.severity = Check.Error)
        report.Runner.r_check
    in
    if report.Runner.r_violations <> [] || check_failed then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol and print its metrics.")
    Term.(
      const action $ protocol_arg $ n_arg $ seed_arg $ rate_arg $ duration_arg
      $ hops_arg $ failures_arg $ fifo_arg $ oracle_arg $ pattern_arg
      $ drop_arg $ dup_arg $ trace_file_arg $ trace_format_arg
      $ check_mode_arg)

(* --- trace --- *)

let trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace written by `recsim run --trace'.")
  in
  let pid_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pid" ] ~docv:"PID" ~doc:"Only events at this process.")
  in
  let kind_arg =
    let kind_conv = Arg.enum (List.map (fun k -> (k, k)) Trace.kind_names) in
    Arg.(
      value
      & opt (some kind_conv) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Only events of this kind (e.g. rollback, drop_obsolete).")
  in
  let strict_arg =
    Arg.(
      value
      & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero on unparsable lines and schema-version mismatch.")
  in
  let action file pid kind strict =
    let errors = ref 0 in
    let mismatch = ref None in
    Trace.iter_file file ~f:(fun ~line res ->
        match res with
        | Error msg ->
            incr errors;
            Printf.eprintf "%s:%d: %s\n" file line msg
        | Ok e -> (
            match Trace.schema_of_event e with
            | Some v ->
                (* The header is bookkeeping, not a protocol event: check
                   it, don't render it. v2 and v3 both read fine. *)
                if (not (Trace.schema_accepts v)) && !mismatch = None then
                  mismatch := Some v
            | None ->
                let keep =
                  (match pid with Some p -> e.Trace.pid = p | None -> true)
                  && match kind with
                     | Some k -> Trace.kind_name e.Trace.kind = k
                     | None -> true
                in
                if keep then Format.printf "%a@." Trace.pp_event e));
    (match !mismatch with
    | Some v ->
        Printf.eprintf
          "%s: %s: trace declares schema version %d but this reader accepts \
           2..%d\n"
          file
          (if strict then "error" else "warning")
          v Trace.schema_version
    | None -> ());
    if !errors > 0 || (strict && !mismatch <> None) then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Pretty-print a JSONL trace, optionally filtered.")
    Term.(const action $ file_arg $ pid_arg $ kind_arg $ strict_arg)

(* --- check --- *)

let check_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace written by `recsim run --trace'.")
  in
  let strict_arg =
    Arg.(
      value
      & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero on warnings, unparsable lines and schema-version \
             mismatches too.")
  in
  let rule_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:
            "Check only $(docv) (repeatable; a rule id like $(b,OPT005) or \
             its slug like $(b,clock-monotonic)). Default: every offline \
             rule.")
  in
  let ignore_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "ignore" ] ~docv:"RULE"
          ~doc:"Skip $(docv) (repeatable; wins over $(b,--rule)).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Report format: $(b,human) or $(b,json).")
  in
  let list_rules_arg =
    Arg.(
      value
      & flag
      & info [ "list-rules" ] ~doc:"List every rule id and exit.")
  in
  let action file strict only ignore format list_rules =
    if list_rules then
      List.iter
        (fun (r : Check.rule) ->
          Printf.printf "%s  %-22s %-7s  %-7s  %-32s  %s\n" r.Check.id
            r.Check.slug
            (match r.Check.severity with
            | Check.Error -> "error"
            | Check.Warning -> "warning")
            (if r.Check.online_only then "online" else "-")
            r.Check.reference r.Check.doc)
        Check.rules
    else
      match file with
      | None ->
          prerr_endline "recsim check: a trace FILE is required";
          exit 2
      | Some file -> (
          match Check.Lint.run ~only ~ignore file with
          | Error msg ->
              Printf.eprintf "recsim check: %s\n" msg;
              exit 2
          | Ok report ->
              (match format with
              | `Human -> Format.printf "%a@?" Check.Lint.pp_human report
              | `Json ->
                  print_endline (Json.to_string (Check.Lint.to_json report)));
              let failed =
                Check.Lint.errors report > 0
                || strict
                   && (Check.Lint.warnings report > 0
                      || report.Check.Lint.parse_errors > 0
                      || Check.Lint.schema_mismatch report <> None)
              in
              if failed then exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Lint a recorded JSONL trace against the protocol invariants \
          (no re-execution).")
    Term.(
      const action $ file_arg $ strict_arg $ rule_arg $ ignore_arg
      $ format_arg $ list_rules_arg)

(* --- live --- *)

let fault_conv =
  conv_of Validate.fault (fun ppf (at, pid) -> Format.fprintf ppf "%g:%d" at pid)

let live_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"DIR"
        ~doc:"Run directory (sockets, stores, traces; previous run cleared).")

(* One live run, as both `live run' and `cluster run' spell it. *)
let plan_term =
  let protocol_arg =
    Arg.(
      value
      & opt protocol_conv Registry.Dg
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:
            (Printf.sprintf "Protocol to run live: %s." Registry.live_names))
  in
  let rate_arg =
    Arg.(
      value
      & opt positive_float Plan.default.rate
      & info [ "rate" ] ~docv:"RATE"
          ~doc:"Environment injections per process per second.")
  in
  let duration_arg =
    Arg.(
      value
      & opt positive_float Plan.default.duration
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Injection window in wall-clock seconds.")
  in
  let settle_arg =
    Arg.(
      value
      & opt non_negative_float Plan.default.settle
      & info [ "settle" ] ~docv:"SECONDS"
          ~doc:"Drain time after the injection window.")
  in
  let hops_arg =
    Arg.(
      value
      & opt (int_at_least 0) Plan.default.hops
      & info [ "hops" ] ~docv:"HOPS"
          ~doc:"Forwarding chain length per stimulus.")
  in
  let faults_arg =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "fault"; "faults" ] ~docv:"SECONDS:PID"
          ~doc:
            "SIGKILL worker $(b,PID) that many seconds into the run \
             (repeatable); on a cluster, the agent hosting the pid \
             delivers it.")
  in
  let failures_arg =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "failures" ] ~docv:"K"
          ~doc:
            "Additionally SIGKILL $(docv) random workers at seeded times in \
             the middle 80% of the injection window.")
  in
  let drop_arg =
    Arg.(
      value
      & opt probability 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:"Probability of dropping each Data frame at send time.")
  in
  let dup_arg =
    Arg.(
      value
      & opt probability 0.0
      & info [ "dup" ] ~docv:"P"
          ~doc:"Probability of duplicating each Data frame at send time.")
  in
  let restart_delay_arg =
    Arg.(
      value
      & opt positive_float Plan.default.restart_delay
      & info [ "restart-delay" ] ~docv:"SECONDS"
          ~doc:"Crash-to-respawn delay.")
  in
  let plan protocol n seed rate duration settle hops pattern faults failures
      drop_rate dup_rate restart_delay =
    let random_faults =
      Schedule.random_crashes
        ~seed:(Int64.add seed 100L)
        ~n ~failures
        ~window:(0.1 *. duration, 0.9 *. duration)
      |> List.filter_map (function
           | Schedule.Crash { at; pid } -> Some (at, pid)
           | _ -> None)
    in
    {
      Plan.default with
      protocol;
      n;
      seed;
      duration;
      settle;
      rate;
      hops;
      pattern;
      kills = List.sort compare (faults @ random_faults);
      net_faults = { Optimist_live.Link.no_faults with drop_rate; dup_rate };
      restart_delay;
    }
  in
  Term.(
    const plan $ protocol_arg $ n_arg $ seed_arg $ rate_arg $ duration_arg
    $ settle_arg $ hops_arg $ pattern_arg $ faults_arg $ failures_arg
    $ drop_arg $ dup_arg $ restart_delay_arg)

(* The lines both run commands print on success. *)
let print_run_result (r : Live.result) =
  Printf.printf "merged trace: %s (%d events, %d torn lines dropped)\n"
    r.merged r.events r.dropped;
  Printf.printf "chrome trace: %s\n" r.chrome;
  Printf.printf "lint it with: recsim check %s --strict\n" r.merged

(* A final incarnation that died (an exception, a failed rebuild) fails
   the run even when the merged trace lints clean. *)
let require_clean_exits ~cmd plan (r : Live.result) =
  if r.clean_exits < plan.Plan.n then begin
    Printf.eprintf "recsim %s: only %d of %d final incarnations exited clean\n"
      cmd r.clean_exits plan.Plan.n;
    exit 1
  end

let live_run_cmd =
  let telemetry_arg =
    Arg.(
      value
      & opt
          (enum [ ("off", Plan.Off); ("ring", Plan.Ring); ("full", Plan.Full) ])
          Plan.default.telemetry
      & info [ "telemetry" ] ~docv:"MODE"
          ~doc:
            "Worker telemetry: $(b,full) (JSONL trace files, the default), \
             $(b,ring) (in-memory ring only) or $(b,off).")
  in
  let action plan telemetry out =
    match Live.run ~dir:out { plan with Plan.telemetry } with
    | Ok r ->
        Printf.printf
          "live run complete: %d workers, %d crash(es) injected, %d clean \
           exit(s)\n"
          plan.Plan.n r.crashes r.clean_exits;
        print_run_result r;
        Printf.printf "profile it with: recsim report %s\n" r.merged;
        require_clean_exits ~cmd:"live run" plan r
    | Error msg ->
        Printf.eprintf "recsim live run: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the protocol over real OS processes and Unix-domain sockets, \
          with SIGKILL crash injection.")
    Term.(const action $ plan_term $ telemetry_arg $ live_out_arg)

(* --- live soak --- *)

let live_soak_cmd =
  let protocols_arg =
    let protocols_conv =
      let parse s =
        if s = "all" then Ok Registry.live_protocols
        else
          match Registry.of_string s with
          | Some p when List.mem p Registry.live_protocols -> Ok [ p ]
          | _ ->
              Error
                (`Msg
                  (Printf.sprintf "unknown live protocol %S (all | %s)" s
                     Registry.live_names))
      in
      let print ppf ps =
        Format.pp_print_string ppf
          (String.concat "," (List.map Registry.name ps))
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt protocols_conv [ Registry.Dg ]
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:
            (Printf.sprintf
               "Protocol matrix the scenarios cycle through: $(b,all) or one \
                of %s."
               Registry.live_names))
  in
  let scenarios_arg =
    Arg.(
      value
      & opt (int_at_least 1) 10
      & info [ "scenarios" ] ~docv:"N"
          ~doc:"Number of randomized scenarios to generate and run.")
  in
  let shrink_budget_arg =
    Arg.(
      value
      & opt (int_at_least 0) 12
      & info [ "shrink-budget" ] ~docv:"RUNS"
          ~doc:
            "Maximum live runs the shrinker may spend per failing scenario \
             (0 disables shrinking).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TOKEN"
          ~doc:
            "Replay a single scenario instead of a campaign: a \
             $(b,SEED:INDEX:PROTOCOL) token printed by a previous soak, or \
             the path of a minimal-scenario JSON artifact.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "soak-run"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Campaign directory (scenario run dirs, campaign.jsonl).")
  in
  let print_scenario_result (s : Scenario.t) = function
    | Error msg ->
        Printf.printf "scenario %d (%s): ERROR %s\n" s.Scenario.sc_index
          s.Scenario.sc_protocol msg
    | Ok r ->
        Printf.printf "scenario %d (%s): %s — %d crash(es), %d events%s%s\n"
          s.Scenario.sc_index s.Scenario.sc_protocol
          (if Soak.failed r then "FAILED" else "ok")
          r.Soak.rr_crashes r.Soak.rr_events
          (match r.Soak.rr_violations with
          | [] -> ""
          | vs ->
              ", violations: "
              ^ String.concat ", "
                  (List.map
                     (fun (id, n) -> Printf.sprintf "%s x%d" id n)
                     vs))
          (match r.Soak.rr_oracle with
          | None -> ""
          | Some msg -> ", oracle: " ^ msg)
  in
  let action seed scenarios protocols shrink_budget replay out =
    match replay with
    | Some token -> (
        match Scenario.of_token token with
        | Error msg ->
            Printf.eprintf "recsim live soak: %s\n" msg;
            exit 2
        | Ok s -> (
            if not (Sys.file_exists out) then Unix.mkdir out 0o755;
            let dir =
              Filename.concat out
                (Printf.sprintf "replay.%d" s.Scenario.sc_index)
            in
            print_endline (Json.to_string (Scenario.to_json s));
            let result = Soak.run_scenario ~dir s in
            print_scenario_result s result;
            match result with
            | Ok r when not (Soak.failed r) -> ()
            | Ok _ -> exit 1
            | Error _ -> exit 2))
    | None ->
        let plan = Scenario.plan ~seed ~count:scenarios ~protocols in
        let summary =
          Soak.run_campaign ~shrink_budget ~log:print_endline ~out ~plan ()
        in
        List.iter
          (fun (o : Soak.outcome) ->
            print_scenario_result o.Soak.oc_scenario o.Soak.oc_result;
            match o.Soak.oc_minimal with
            | Some _ ->
                Printf.printf
                  "  minimal reproducer: %s\n  replay with: recsim live soak \
                   --replay %s\n"
                  (Soak.minimal_file out o.Soak.oc_scenario.Scenario.sc_index)
                  (Soak.minimal_file out o.Soak.oc_scenario.Scenario.sc_index)
            | None -> ())
          summary.Soak.sm_outcomes;
        Printf.printf
          "soak campaign: %d scenario(s), %d failing, %d error(s), %d \
           crash(es) injected, %d merged events\n"
          (List.length summary.Soak.sm_outcomes)
          summary.Soak.sm_failed summary.Soak.sm_errors summary.Soak.sm_crashes
          summary.Soak.sm_events;
        (match summary.Soak.sm_rule_counts with
        | [] -> ()
        | counts ->
            Printf.printf "violations by rule: %s\n"
              (String.concat ", "
                 (List.map
                    (fun (id, n) -> Printf.sprintf "%s x%d" id n)
                    counts)));
        Printf.printf "campaign summary: %s\n" (Soak.campaign_file out);
        if summary.Soak.sm_failed > 0 || summary.Soak.sm_errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Generate seeded fault scenarios, run them on the live runtime, \
          lint every merged trace, and shrink failures to minimal \
          reproducers.")
    Term.(
      const action $ seed_arg $ scenarios_arg $ protocols_arg
      $ shrink_budget_arg $ replay_arg $ out_arg)

let report_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]) `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text), $(b,json) or $(b,csv).")

let require_recovery_arg =
  Arg.(
    value
    & flag
    & info [ "require-recovery" ]
        ~doc:"Exit non-zero when the input contains no recovery records.")

let print_report t format =
  match format with
  | `Text -> print_string (Report.to_text t)
  | `Json -> print_endline (Report.to_json t)
  | `Csv -> print_string (Report.to_csv t)

(* --- report (offline recovery profiler) --- *)

let report_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL traces to aggregate (e.g. a live run's merged.jsonl; \
             several runs may be given, and a fault-free run serves as the \
             overhead baseline).")
  in
  let action files format require =
    match Report.of_files files with
    | Error msg ->
        Printf.eprintf "recsim report: %s\n" msg;
        exit 2
    | Ok t ->
        print_report t format;
        if require && Report.total_recoveries t = 0 then begin
          prerr_endline "recsim report: no recovery records in the input";
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate telemetry (spans, metric snapshots) out of JSONL traces \
          into per-protocol recovery statistics.")
    Term.(const action $ files_arg $ report_format_arg $ require_recovery_arg)

(* The one-line JSON document at [path]; [Error] for an unreadable,
   empty or malformed file. *)
let read_json path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some line -> Json.of_string line
  | None -> Error "empty file"
  | exception Sys_error msg -> Error msg

let live_report_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Run directory written by `recsim live run'.")
  in
  let field j name = Json.mem name j in
  let int_field j name = Option.bind (field j name) Json.to_int in
  let action dir format require =
    let merged = Live.merged_file dir in
    let profile () =
      if Sys.file_exists merged then
        match Report.of_files [ merged ] with
        | Ok t -> Some t
        | Error msg ->
            Printf.eprintf "recsim live report: %s\n" msg;
            None
      else None
    in
    let check_require t_opt =
      if require then
        match t_opt with
        | Some t when Report.total_recoveries t > 0 -> ()
        | _ ->
            prerr_endline
              "recsim live report: no recovery records in the merged trace";
            exit 1
    in
    (match format with
    | (`Json | `Csv) as f -> (
        match profile () with
        | Some t ->
            print_report t f;
            check_require (Some t)
        | None ->
            Printf.eprintf "recsim live report: no merged trace at %s\n" merged;
            exit 2)
    | `Text ->
    let run_path = Live.run_file dir in
    if not (Sys.file_exists run_path) then begin
      Printf.eprintf "recsim live report: %s not found (not a run directory?)\n"
        run_path;
      exit 2
    end;
    let summary =
      match read_json run_path with
      | Ok j -> j
      | Error msg ->
          Printf.eprintf "recsim live report: %s: %s\n" run_path msg;
          exit 2
    in
    let n = Option.value ~default:0 (int_field summary "n") in
    let protocol_name =
      Option.value ~default:"?"
        (Option.bind (field summary "protocol") Json.string_value)
    in
    Printf.printf "protocol:     %s\n" protocol_name;
    List.iter
      (fun name ->
        match int_field summary name with
        | Some v -> Printf.printf "%-13s %d\n" (name ^ ":") v
        | None -> ())
      [ "n"; "crashes"; "clean_exits"; "events"; "dropped_lines" ];
    (* Final incarnation of each worker: highest generation with a stats
       file (a gen that died to SIGKILL never wrote one). *)
    let t =
      Table.create
        ~columns:
          [
            ("pid", Table.Right);
            ("gens", Table.Right);
            ("digest", Table.Right);
            ("delivered", Table.Right);
            ("replayed", Table.Right);
            ("restarts", Table.Right);
            ("rollbacks", Table.Right);
          ]
    in
    let final_gen pid =
      match Option.bind (field summary "generations") Json.list_value with
      | Some l -> (
          match List.nth_opt l pid with
          | Some g -> Option.value ~default:0 (Json.to_int g)
          | None -> 0)
      | None -> 0
    in
    for pid = 0 to n - 1 do
      (* Walk down from the final generation: an incarnation that died to
         a SIGKILL wrote no stats file, only cleanly-exiting ones did. *)
      let rec last_stats gen =
        if gen < 0 then None
        else
          let path = Live_worker.stats_file ~dir ~me:pid ~gen in
          if Sys.file_exists path then Some (path, gen)
          else last_stats (gen - 1)
      in
      (* A missing stats file and a torn one (a straggler killed after
         the shutdown grace) both leave this worker's outcome unknown. *)
      match
        Option.map
          (fun (path, gen) -> (read_json path, gen))
          (last_stats (final_gen pid))
      with
      | None | Some (Error _, _) ->
          Table.add_row t [ string_of_int pid; "?"; "-"; "-"; "-"; "-"; "-" ]
      | Some (Ok j, gen) ->
          let counters = Option.value ~default:Json.Null (field j "counters") in
          let c name =
            match Option.bind (Json.mem name counters) Json.to_int with
            | Some v -> string_of_int v
            | None -> "0"
          in
          Table.add_row t
            [
              string_of_int pid;
              string_of_int (gen + 1);
              (match int_field j "digest" with
              | Some d -> Printf.sprintf "%08x" (d land 0xffffffff)
              | None -> "-");
              c "delivered";
              c "replayed";
              c "restarts";
              c "rollbacks";
            ]
    done;
    Format.printf "%s@." (Table.render t);
    (* Lint with the rules the run's protocol declares, as [live run]
       and soak do; a run.json naming no known protocol gets every rule. *)
    let protocol = Registry.of_string protocol_name in
    (if Sys.file_exists merged then
       match
         Check.Lint.run
           ~only:(Option.fold ~none:[] ~some:Registry.live_check_rules protocol)
           merged
       with
       | Ok report ->
           Printf.printf "sanitizer:    %d error(s), %d warning(s)%s%s\n"
             (Check.Lint.errors report)
             (Check.Lint.warnings report)
             (match Check.Lint.schema_mismatch report with
             | Some v -> Printf.sprintf " (schema mismatch: %d)" v
             | None -> "")
             (if protocol = None then " (every rule: unknown protocol)" else "")
       | Error msg -> Printf.printf "sanitizer:    unavailable (%s)\n" msg
     else Printf.printf "sanitizer:    no merged trace at %s\n" merged);
    let t_opt = profile () in
    (match t_opt with
    | Some t ->
        Printf.printf "\nrecovery profile:\n%s" (Report.to_text t)
    | None -> ());
    check_require t_opt)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize a live run directory.")
    Term.(const action $ dir_arg $ report_format_arg $ require_recovery_arg)

let live_cmd =
  Cmd.group
    (Cmd.info "live"
       ~doc:
         "Run the protocol over real processes and sockets (crash injection \
          included).")
    [ live_run_cmd; live_soak_cmd; live_report_cmd ]

(* --- cluster --- *)

let host_port_conv =
  conv_of Validate.host_port (fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let port_conv = conv_of Validate.port Format.pp_print_int

let peers_arg =
  Arg.(
    value
    & opt_all host_port_conv []
    & info [ "peer" ; "peers" ] ~docv:"HOST:PORT"
        ~doc:
          "Control endpoint of an already-running `recsim cluster agent' \
           (repeatable, one per agent). When absent, $(b,--agents) localhost \
           agents are forked instead.")

let agents_arg =
  Arg.(
    value
    & opt (int_at_least 1) 2
    & info [ "agents" ] ~docv:"K"
        ~doc:
          "Number of localhost agents to fork when no $(b,--peer) is given.")

let port_base_arg =
  Arg.(
    value
    & opt port_conv 7800
    & info [ "port-base" ] ~docv:"PORT"
        ~doc:"First control port for forked localhost agents.")

let worker_base_arg =
  Arg.(
    value
    & opt port_conv 7900
    & info [ "worker-base" ] ~docv:"PORT"
        ~doc:"Worker pid $(b,i) listens for mesh data on $(docv)$(b,+i).")

let cluster_agent_cmd =
  let dir_arg =
    Arg.(
      value
      & opt string "cluster-agent"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Local run directory (cleared at each new plan).")
  in
  let port_arg =
    Arg.(
      value
      & opt port_conv 7800
      & info [ "port" ] ~docv:"PORT" ~doc:"Control port to listen on.")
  in
  let once_arg =
    Arg.(
      value
      & flag
      & info [ "once" ] ~doc:"Exit after serving one coordinator connection.")
  in
  let action dir port once =
    match Cluster_agent.serve ~once ~dir ~port () with
    | () -> ()
    | exception Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "recsim cluster agent: %s: %s\n" fn
          (Unix.error_message e);
        exit 2
  in
  Cmd.v
    (Cmd.info "agent"
       ~doc:
         "Host a block of live workers on this machine on behalf of a remote \
          `recsim cluster run' coordinator.")
    Term.(const action $ dir_arg $ port_arg $ once_arg)

let cluster_run_cmd =
  let lead_arg =
    Arg.(
      value
      & opt positive_float 0.5
      & info [ "lead" ] ~docv:"SECONDS"
          ~doc:
            "How far in the future the shared start instant is placed, so \
             every agent's workers are connected before time starts.")
  in
  let action plan lead peers agents port_base worker_base out =
    let result =
      match peers with
      | [] ->
          Cluster.run_forked ~log:print_endline ~lead ~out ~worker_base
            ~port_base ~agents plan
      | peers -> Cluster.run ~log:print_endline ~lead ~out ~worker_base ~peers plan
    in
    match result with
    | Error msg ->
        Printf.eprintf "recsim cluster run: %s\n" msg;
        exit 2
    | Ok r ->
        Printf.printf
          "cluster run complete: %d workers on %d agent(s), %d crash(es) \
           injected, %d clean exit(s)\n"
          plan.Plan.n
          (match peers with [] -> agents | ps -> List.length ps)
          r.crashes r.clean_exits;
        print_run_result r;
        require_clean_exits ~cmd:"cluster run" plan r
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the protocol across several machines (or several localhost \
          agent processes) over the TCP mesh, with remotely scheduled \
          SIGKILL injection.")
    Term.(
      const action $ plan_term $ lead_arg $ peers_arg $ agents_arg
      $ port_base_arg $ worker_base_arg $ live_out_arg)

let cluster_soak_cmd =
  let scenarios_arg =
    Arg.(
      value
      & opt (int_at_least 1) 6
      & info [ "scenarios" ] ~docv:"N"
          ~doc:"Number of randomized scenarios to generate and run.")
  in
  let shrink_budget_arg =
    Arg.(
      value
      & opt (int_at_least 0) 8
      & info [ "shrink-budget" ] ~docv:"RUNS"
          ~doc:
            "Maximum cluster runs the shrinker may spend per failing \
             scenario (0 disables shrinking).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "cluster-soak"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Campaign directory (scenario run dirs, campaign.jsonl).")
  in
  let action seed scenarios shrink_budget agents port_base worker_base out =
    let plan =
      Scenario.plan ~seed ~count:scenarios
        ~protocols:[ Registry.Dg ]
    in
    let runner ~dir (plan : Plan.t) =
      Cluster.run_forked ~out:dir ~worker_base ~port_base
        ~agents:(min agents plan.n) plan
    in
    let summary =
      Soak.run_campaign ~runner ~shrink_budget ~log:print_endline ~out ~plan ()
    in
    Printf.printf
      "cluster soak: %d scenario(s) on %d agent(s), %d failing, %d error(s), \
       %d crash(es) injected, %d merged events\n"
      (List.length summary.Soak.sm_outcomes)
      agents summary.Soak.sm_failed summary.Soak.sm_errors
      summary.Soak.sm_crashes summary.Soak.sm_events;
    if summary.Soak.sm_failed > 0 || summary.Soak.sm_errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run seeded fault scenarios on a forked-localhost TCP cluster and \
          lint every merged trace.")
    Term.(
      const action $ seed_arg $ scenarios_arg $ shrink_budget_arg $ agents_arg
      $ port_base_arg $ worker_base_arg $ out_arg)

let cluster_cmd =
  Cmd.group
    (Cmd.info "cluster"
       ~doc:
         "Run the live protocol across multiple hosts (or localhost agent \
          processes) over TCP.")
    [ cluster_agent_cmd; cluster_run_cmd; cluster_soak_cmd ]

(* --- mc --- *)

module Mc_model = Optimist_mc.Model
module Mc_explorer = Optimist_mc.Explorer
module Mc_dpor = Optimist_mc.Dpor
module Mc_cx = Optimist_mc.Counterexample

let mc_print_counterexample (decisions, violations) =
  Printf.printf "counterexample (%d decisions):\n" (List.length decisions);
  List.iteri
    (fun i d -> Printf.printf "  %2d. %s\n" (i + 1) (Mc_dpor.to_string d))
    decisions;
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) violations

let mc_explore_term =
  let protocol_arg =
    Arg.(
      value
      & opt protocol_conv Registry.Dg
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:"Protocol, or variant, to model-check.")
  in
  let procs_arg =
    Arg.(
      value
      & opt (int_at_least 2) 3
      & info [ "procs" ] ~docv:"N" ~doc:"Number of processes (2-4 is typical).")
  in
  let depth_arg =
    Arg.(
      value
      & opt (int_at_least 0) 8
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Maximum branch points per execution; beyond it the run is \
             completed with the deterministic default schedule.")
  in
  let msgs_arg =
    Arg.(
      value
      & opt (int_at_least 1) 2
      & info [ "msgs" ] ~docv:"K"
          ~doc:"Application messages injected at t=0, round-robin over pids.")
  in
  let hops_arg =
    Arg.(
      value
      & opt (int_at_least 0) 2
      & info [ "hops" ] ~docv:"H" ~doc:"Forwarding hops per injected message.")
  in
  let crashes_arg =
    Arg.(
      value
      & opt (int_at_least 0) 1
      & info [ "crashes" ] ~docv:"C"
          ~doc:"Crash-injection budget per execution.")
  in
  let naive_arg =
    Arg.(
      value
      & flag
      & info [ "naive" ]
          ~doc:
            "Disable partial-order reduction and enumerate every schedule \
             (the default is $(b,--dpor)).")
  in
  let dpor_arg =
    Arg.(
      value
      & flag
      & info [ "dpor" ]
          ~doc:"Sleep-set partial-order reduction (the default).")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "mutate" ] ~docv:"MUTANT"
          ~doc:
            "Check a deliberately broken protocol variant (see \
             $(b,--list-mutants)); an alias for $(b,--protocol).")
  in
  let list_mutants_arg =
    Arg.(
      value
      & flag
      & info [ "list-mutants" ] ~doc:"List the shipped mutants and exit.")
  in
  let max_schedules_arg =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "max-schedules" ] ~docv:"M"
          ~doc:"Stop after exploring $(docv) schedules (0 = exhaustive).")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (int_at_least 1) 200_000
      & info [ "max-steps" ] ~docv:"S"
          ~doc:"Per-execution event budget (runaway guard).")
  in
  let no_fingerprint_arg =
    Arg.(
      value
      & flag
      & info [ "no-fingerprint" ]
          ~doc:"Disable state-fingerprint pruning of revisited states.")
  in
  let keep_going_arg =
    Arg.(
      value
      & flag
      & info [ "keep-going" ]
          ~doc:
            "Do not stop at the first counterexample; report every distinct \
             violation found.")
  in
  let cx_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cx" ] ~docv:"FILE"
          ~doc:
            "Write the first counterexample as JSON to $(docv) (replayable \
             with `recsim mc replay').")
  in
  let action protocol procs depth msgs hops crashes naive dpor mutate
      list_mutants max_schedules max_steps no_fingerprint keep_going cx_file =
    if list_mutants then begin
      List.iter
        (fun (e : Registry.entry) ->
          Option.iter
            (fun (m : Registry.mutant) ->
              Printf.printf "%-18s %-12s %s  %s\n" e.name
                (Registry.name e.base) m.rule m.doc)
            e.mutant)
        Registry.entries;
      exit 0
    end;
    if naive && dpor then begin
      prerr_endline "recsim mc: --naive and --dpor are mutually exclusive";
      exit 2
    end;
    let protocol = Option.value mutate ~default:protocol in
    let cfg = { Mc_model.protocol; n = procs; msgs; hops; crashes } in
    Result.iter_error
      (fun msg ->
        Printf.eprintf "recsim mc: %s\n" msg;
        exit 2)
      (Mc_model.validate cfg);
    let opts =
      {
        Mc_explorer.depth;
        max_steps;
        max_schedules;
        fingerprint = not no_fingerprint;
        mode = (if naive then Mc_explorer.Naive else Mc_explorer.Dpor);
        stop_on_violation = not keep_going;
        log_schedules = false;
      }
    in
    let outcome =
      Mc_explorer.explore ~build:(fun () -> Mc_model.build cfg) ~crashes opts
    in
    let protocol, mutation = Registry.protocol_and_mutation protocol in
    Printf.printf "protocol: %s%s\n" protocol
      (if mutation = "" then "" else "  mutation: " ^ mutation);
    Printf.printf "mode: %s  depth: %d  procs: %d  msgs: %d  hops: %d  crashes: %d\n"
      (if naive then "naive" else "dpor")
      depth procs msgs hops crashes;
    Printf.printf
      "schedules: %d  pruned(sleep): %d  pruned(fp): %d  truncated: %d  max \
       branch depth: %d\n"
      outcome.Mc_explorer.o_schedules outcome.Mc_explorer.o_pruned_sleep
      outcome.Mc_explorer.o_pruned_fp outcome.Mc_explorer.o_truncated
      outcome.Mc_explorer.o_max_points;
    Printf.printf "exploration: %s\n"
      (if outcome.Mc_explorer.o_exhausted then "exhaustive"
       else if outcome.Mc_explorer.o_violation <> None then
         "stopped at first counterexample"
       else "stopped at schedule limit");
    match outcome.Mc_explorer.o_violation with
    | None -> Printf.printf "no violations found\n"
    | Some ((decisions, violations) as cxpair) ->
        mc_print_counterexample cxpair;
        if outcome.Mc_explorer.o_all_violations <> violations then
          List.iter
            (fun v -> Printf.printf "also seen: %s\n" v)
            (List.filter
               (fun v -> not (List.mem v violations))
               outcome.Mc_explorer.o_all_violations);
        (match cx_file with
        | None -> ()
        | Some path ->
            let cx =
              {
                Mc_cx.cx_cfg = cfg;
                cx_decisions = decisions;
                cx_violations = violations;
              }
            in
            let oc = open_out path in
            output_string oc (Mc_cx.to_string cx);
            output_char oc '\n';
            close_out oc;
            Printf.printf "counterexample written to %s\n" path);
        exit 1
  in
  Term.(
    const action $ protocol_arg $ procs_arg $ depth_arg $ msgs_arg $ hops_arg
    $ crashes_arg $ naive_arg $ dpor_arg $ mutate_arg $ list_mutants_arg
    $ max_schedules_arg $ max_steps_arg $ no_fingerprint_arg $ keep_going_arg
    $ cx_arg)

let mc_replay_cmd =
  let cx_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"CX" ~doc:"Counterexample JSON written by `recsim mc --cx'.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the re-executed schedule as a JSONL trace to $(docv) \
             (default: stdout), ready for `recsim check' / `recsim trace'.")
  in
  let action cx_file out =
    match cx_file with
    | None ->
        prerr_endline "recsim mc replay: a counterexample FILE is required";
        exit 2
    | Some path -> (
        let contents =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Mc_cx.of_string (String.trim contents) with
        | Error msg ->
            Printf.eprintf "recsim mc replay: %s\n" msg;
            exit 2
        | Ok cx ->
            let run write =
              try Mc_cx.replay ~write cx
              with Optimist_mc.Strategy.Divergence msg ->
                Printf.eprintf "recsim mc replay: %s\n" msg;
                exit 2
            in
            let violations =
              match out with
              | None -> run print_string
              | Some file ->
                  let oc = open_out file in
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> run (output_string oc))
            in
            List.iter
              (fun v -> Printf.eprintf "VIOLATION %s\n" v)
              violations;
            if violations = [] then begin
              prerr_endline
                "recsim mc replay: schedule no longer violates (stale \
                 counterexample?)";
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a counterexample and emit it as a standard JSONL trace.")
    Term.(const action $ cx_file_arg $ out_arg)

let mc_cmd =
  Cmd.group
    ~default:mc_explore_term
    (Cmd.info "mc"
       ~doc:
         "Exhaustively model-check small configurations: enumerate schedules \
          and crash points (with partial-order reduction) and report any \
          invariant violation as a replayable counterexample.")
    [ mc_replay_cmd ]

(* --- compare --- *)

let compare_cmd =
  let action n seed rate duration hops failures pattern =
    let t =
      Table.create
        ~columns:
          [
            ("protocol", Table.Left);
            ("delivered", Table.Right);
            ("rollbacks", Table.Right);
            ("restarts", Table.Right);
            ("obsolete", Table.Right);
            ("piggyback w/msg", Table.Right);
            ("blocked time", Table.Right);
          ]
    in
    List.iter
      (fun protocol ->
        let params =
          make_params protocol n seed rate duration hops failures
            (Registry.fifo protocol) false pattern
        in
        let r = Runner.run params in
        let piggyback =
          float_of_int (Runner.counter r "piggyback_words")
          /. float_of_int (max 1 (Runner.counter r "sent"))
        in
        Table.add_row t
          [
            r.Runner.r_protocol;
            string_of_int (Runner.counter r "delivered");
            string_of_int (Runner.counter r "rollbacks");
            string_of_int (Runner.counter r "restarts");
            string_of_int (Runner.counter r "discarded_obsolete");
            Printf.sprintf "%.1f" piggyback;
            Printf.sprintf "%.1f"
              (float_of_int (Runner.counter r "blocked_time_x1000") /. 1000.0);
          ])
      Registry.all;
    Format.printf "%s@." (Table.render t)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every protocol on the same schedule and tabulate.")
    Term.(
      const action $ n_arg $ seed_arg $ rate_arg $ duration_arg $ hops_arg
      $ failures_arg $ pattern_arg)

(* --- list --- *)

let list_cmd =
  let action () =
    List.iter
      (fun p -> print_endline (Registry.name p))
      Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the implemented protocols.")
    Term.(const action $ const ())

let () =
  let doc =
    "Simulate optimistic rollback-recovery protocols (Damani-Garg 1996 and \
     baselines)."
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "recsim" ~doc)
          [
            run_cmd;
            trace_cmd;
            check_cmd;
            report_cmd;
            mc_cmd;
            live_cmd;
            cluster_cmd;
            compare_cmd;
            list_cmd;
          ]))
