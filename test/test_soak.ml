(* Tests of the soak harness: scenario generation is a pure function of
   (seed, index, protocol), shrink candidates are strict simplifications,
   campaign records are deterministic over their outcomes, and the
   Validate parsers behind the CLI's numeric flags reject bad input with
   the documented one-line errors. *)

module Scenario = Optimist_soak.Scenario
module Soak = Optimist_soak.Soak
module Worker = Optimist_live.Worker
module Registry = Optimist_protocols.Registry
module Json = Optimist_obs.Json
module Validate = Optimist_util.Validate

let scenario_string s = Json.to_string (Scenario.to_json s)

let all_names = List.map Registry.name Worker.all_protocols

(* --- determinism: same seed => byte-identical scenarios --- *)

let test_generate_deterministic () =
  List.iteri
    (fun i protocol ->
      let seed = Int64.of_int (41 + i) in
      let a = Scenario.generate ~seed ~index:i ~protocol in
      let b = Scenario.generate ~seed ~index:i ~protocol in
      Alcotest.(check string)
        (Printf.sprintf "generate %s is reproducible" protocol)
        (scenario_string a) (scenario_string b))
    all_names

let test_plan_deterministic () =
  let render plan = String.concat "\n" (List.map scenario_string plan) in
  let mk () =
    Scenario.plan ~seed:42L ~count:12 ~protocols:Worker.all_protocols
  in
  Alcotest.(check string) "plan is byte-identical" (render (mk ()))
    (render (mk ()));
  (* The plan cycles the protocol list, so a 12-scenario plan over six
     protocols exercises each exactly twice. *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (s : Scenario.t) ->
      Hashtbl.replace counts s.sc_protocol
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.sc_protocol)))
    (mk ());
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s appears twice" name)
        2
        (Option.value ~default:0 (Hashtbl.find_opt counts name)))
    all_names

(* The seed-42 plan over every live protocol, pinned byte for byte to a
   recorded file. The recording spells Damani-Garg and the pessimistic
   baseline by their aliases; deciding dups by protocol id rather than by
   name keeps every PRNG-drawn field identical. *)
let test_plan_pinned () =
  let fixture =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat "fixtures" "soak_plan_42.jsonl")
  in
  let canonical line =
    List.fold_left
      (fun line (alias, name) ->
        let key = Printf.sprintf {|"protocol":"%s"|} alias in
        let n = String.length key in
        let rec find i =
          if i + n > String.length line then line
          else if String.sub line i n = key then
            String.sub line 0 i
            ^ Printf.sprintf {|"protocol":"%s"|} name
            ^ String.sub line (i + n) (String.length line - i - n)
          else find (i + 1)
        in
        find 0)
      line
      [ ("dg", "damani-garg"); ("pessimist", "pessimistic") ]
  in
  let ic = open_in fixture in
  let rec read acc =
    match input_line ic with
    | l -> read (canonical l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  Alcotest.(check (list string)) "plan matches the recorded one" (read [])
    (List.map scenario_string
       (Scenario.plan ~seed:42L ~count:12 ~protocols:Worker.all_protocols))

let test_scenarios_stay_in_bounds () =
  List.iter
    (fun (s : Scenario.t) ->
      Alcotest.(check bool) "n in range" true (s.sc_n >= 3 && s.sc_n <= 5);
      Alcotest.(check bool) "at least one kill" true (s.sc_kills <> []);
      List.iter
        (fun (k : Scenario.kill) ->
          Alcotest.(check bool) "kill pid valid" true
            (k.kl_pid >= 0 && k.kl_pid < s.sc_n);
          Alcotest.(check bool) "kill inside the run window" true
            (k.kl_at > 0.0 && k.kl_at < s.sc_duration))
        s.sc_kills;
      Alcotest.(check bool) "drop is a small probability" true
        (s.sc_drop >= 0.0 && s.sc_drop < 0.1);
      Alcotest.(check bool) "dup is a small probability" true
        (s.sc_dup >= 0.0 && s.sc_dup < 0.1);
      if Registry.of_string s.sc_protocol <> Some Registry.Dg then
        Alcotest.(check (float 0.0)) "dups only for the uid-filtering protocol"
          0.0 s.sc_dup)
    (Scenario.plan ~seed:7L ~count:60 ~protocols:Worker.all_protocols)

(* --- JSON round-trip and replay tokens --- *)

let test_json_roundtrip () =
  List.iter
    (fun s ->
      match Scenario.of_json (Scenario.to_json s) with
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg
      | Ok s' ->
          Alcotest.(check string) "round-trip preserves the scenario"
            (scenario_string s) (scenario_string s'))
    (Scenario.plan ~seed:99L ~count:18 ~protocols:Worker.all_protocols)

let test_replay_token_regenerates () =
  List.iter
    (fun (s : Scenario.t) ->
      match Scenario.of_token (Scenario.replay_token s) with
      | Error msg -> Alcotest.failf "token rejected: %s" msg
      | Ok s' ->
          Alcotest.(check string) "token regenerates the scenario"
            (scenario_string s) (scenario_string s'))
    (Scenario.plan ~seed:5L ~count:6 ~protocols:Worker.all_protocols)

let test_replay_token_from_file () =
  (* A shrunk scenario is unreachable from any SEED:INDEX:PROTOCOL token;
     it replays from its JSON artifact instead. *)
  let s = Scenario.generate ~seed:5L ~index:0 ~protocol:"damani-garg" in
  let shrunk = { s with Scenario.sc_drop = 0.0; sc_dup = 0.0 } in
  let path = Filename.temp_file "soak-minimal" ".json" in
  let oc = open_out path in
  output_string oc (scenario_string shrunk);
  output_char oc '\n';
  close_out oc;
  (match Scenario.of_token path with
  | Error msg -> Alcotest.failf "file token rejected: %s" msg
  | Ok s' ->
      Alcotest.(check string) "file replays the shrunk scenario"
        (scenario_string shrunk) (scenario_string s'));
  Sys.remove path

let test_replay_token_rejects_garbage () =
  List.iter
    (fun tok ->
      match Scenario.of_token tok with
      | Ok _ -> Alcotest.failf "accepted %S" tok
      | Error _ -> ())
    [ "nonsense"; "1:2"; "1:-2:dg"; "x:0:dg"; "1:0:not-a-protocol"; "1:0:peterson-kearns" ]

(* --- shrinking: every candidate is strictly simpler --- *)

let test_shrink_candidates_strictly_simpler () =
  let rec check_down s depth =
    if depth > 16 then Alcotest.fail "shrink descent did not terminate";
    List.iter
      (fun c ->
        if compare (Scenario.measure c) (Scenario.measure s) >= 0 then
          Alcotest.failf "candidate not simpler: %s -> %s" (scenario_string s)
            (scenario_string c);
        Alcotest.(check bool) "candidates keep at least one kill" true
          (c.Scenario.sc_kills <> []);
        check_down c (depth + 1))
      (Scenario.shrink_candidates s)
  in
  List.iter
    (fun s -> check_down s 0)
    (Scenario.plan ~seed:1L ~count:24 ~protocols:Worker.all_protocols)

(* --- campaign records: pure over their outcomes --- *)

let synthetic_outcomes () =
  let s0 = Scenario.generate ~seed:3L ~index:0 ~protocol:"damani-garg" in
  let s1 = Scenario.generate ~seed:3L ~index:1 ~protocol:"pessimistic" in
  let s2 = Scenario.generate ~seed:3L ~index:2 ~protocol:"sender-based" in
  [
    {
      Soak.oc_scenario = s0;
      oc_result =
        Ok
          {
            Soak.rr_crashes = 2;
            rr_events = 400;
            rr_violations = [];
            rr_oracle = None;
            rr_merged = "s0/merged.jsonl";
          };
      oc_minimal = None;
    };
    {
      Soak.oc_scenario = s1;
      oc_result =
        Ok
          {
            Soak.rr_crashes = 1;
            rr_events = 300;
            rr_violations = [ ("OPT002", 3); ("OPT007", 1) ];
            rr_oracle = Some "1 crash(es) delivered but only 0 failure record(s)";
            rr_merged = "s1/merged.jsonl";
          };
      oc_minimal = Some { s1 with Scenario.sc_drop = 0.0 };
    };
    {
      Soak.oc_scenario = s2;
      oc_result = Error "unknown protocol";
      oc_minimal = None;
    };
  ]

let test_campaign_records_deterministic () =
  let render outcomes =
    String.concat "\n"
      (List.map (fun o -> Json.to_string (Soak.outcome_json o)) outcomes
      @ [ Json.to_string (Soak.summary_json (Soak.summarize outcomes)) ])
  in
  Alcotest.(check string) "campaign records are byte-identical"
    (render (synthetic_outcomes ()))
    (render (synthetic_outcomes ()))

let test_summarize_aggregates () =
  let sm = Soak.summarize (synthetic_outcomes ()) in
  Alcotest.(check int) "failed" 1 sm.Soak.sm_failed;
  Alcotest.(check int) "errors" 1 sm.Soak.sm_errors;
  Alcotest.(check int) "crashes" 3 sm.Soak.sm_crashes;
  Alcotest.(check int) "events" 700 sm.Soak.sm_events;
  Alcotest.(check (list (pair string int)))
    "violations aggregated in rule order"
    [ ("OPT002", 3); ("OPT007", 1) ]
    sm.Soak.sm_rule_counts;
  let statuses =
    List.map
      (fun o ->
        match Json.mem "status" (Soak.outcome_json o) with
        | Some (Json.String s) -> s
        | _ -> "?")
      sm.Soak.sm_outcomes
  in
  Alcotest.(check (list string)) "statuses" [ "ok"; "violation"; "error" ]
    statuses

(* --- one tiny live campaign, end to end --- *)

let test_small_live_campaign () =
  let out =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optsoak-%d" (Unix.getpid ()))
  in
  let s = Scenario.generate ~seed:7L ~index:0 ~protocol:"damani-garg" in
  (* Keep the run short and fault-free on the wire: one SIGKILL only. *)
  let s =
    {
      s with
      Scenario.sc_n = 3;
      sc_duration = 1.2;
      sc_drop = 0.0;
      sc_dup = 0.0;
      sc_partitions = [];
      sc_kills = [ { Scenario.kl_at = 0.6; kl_pid = 1 } ];
    }
  in
  let sm = Soak.run_campaign ~out ~plan:[ s ] () in
  Alcotest.(check int) "no violations" 0 sm.Soak.sm_failed;
  Alcotest.(check int) "no errors" 0 sm.Soak.sm_errors;
  Alcotest.(check int) "one crash delivered" 1 sm.Soak.sm_crashes;
  let lines = ref [] in
  let ic = open_in (Soak.campaign_file out) in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let records =
    List.rev_map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error m -> Alcotest.failf "campaign line unparsable: %s" m)
      !lines
  in
  (* One scenario record, the aggregate, and the latency profile. *)
  Alcotest.(check int) "campaign.jsonl lines" 3 (List.length records);
  let kinds =
    List.map
      (fun j ->
        match Json.mem "record" j with
        | Some (Json.String r) -> r
        | _ -> "scenario")
      records
  in
  Alcotest.(check (list string)) "record kinds"
    [ "scenario"; "campaign"; "profile" ]
    kinds

(* --- Validate: the parsers behind the CLI's numeric flags --- *)

let check_parse name expect got =
  Alcotest.(check (result (pair (float 1e-9) int) string)) name expect got

let test_validate_tables () =
  let ints =
    [
      ("--failures -1", Validate.int_at_least 0, "-1",
       Error "must be at least 0 (got -1)");
      ("--scenarios 0", Validate.int_at_least 1, "0",
       Error "must be at least 1 (got 0)");
      ("-n 1", Validate.int_at_least 2, "1",
       Error "must be at least 2 (got 1)");
      ("--hops junk", Validate.int_at_least 1, "junk",
       Error "expected an integer, got \"junk\"");
      ("--failures 2", Validate.int_at_least 0, "2", Ok 2);
    ]
  in
  List.iter
    (fun (name, parse, input, expect) ->
      Alcotest.(check (result int string)) name expect (parse input))
    ints;
  let floats =
    [
      ("--rate 0", Validate.positive_float, "0",
       Error "must be positive (got 0)");
      ("--rate -3", Validate.positive_float, "-3",
       Error "must be positive (got -3)");
      ("--rate inf", Validate.positive_float, "inf",
       Error "must be finite (got inf)");
      ("--settle -0.5", Validate.non_negative_float, "-0.5",
       Error "must be non-negative (got -0.5)");
      ("--settle x", Validate.non_negative_float, "x",
       Error "expected a number, got \"x\"");
      ("--drop 1.5", Validate.probability, "1.5",
       Error "must be a probability in [0, 1] (got 1.5)");
      ("--dup -0.1", Validate.probability, "-0.1",
       Error "must be a probability in [0, 1] (got -0.1)");
      ("--rate 6.5", Validate.positive_float, "6.5", Ok 6.5);
      ("--drop 0.02", Validate.probability, "0.02", Ok 0.02);
    ]
  in
  List.iter
    (fun (name, parse, input, expect) ->
      Alcotest.(check (result (float 1e-9) string)) name expect (parse input))
    floats;
  check_parse "--fault 0.7:1" (Ok (0.7, 1)) (Validate.fault "0.7:1");
  check_parse "--fault 1.0:-2"
    (Error "fault pid must be non-negative (got -2)")
    (Validate.fault "1.0:-2");
  check_parse "--fault 0:1"
    (Error "fault time must be positive (got 0)")
    (Validate.fault "0:1");
  check_parse "--fault nope"
    (Error "expected SECONDS:PID, got \"nope\"")
    (Validate.fault "nope")

let suite =
  [
    Alcotest.test_case "scenario: generate is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "scenario: plan is deterministic and cycles protocols"
      `Quick test_plan_deterministic;
    Alcotest.test_case "scenario: seed-42 plan matches its recording" `Quick
      test_plan_pinned;
    Alcotest.test_case "scenario: generated parameters stay in bounds" `Quick
      test_scenarios_stay_in_bounds;
    Alcotest.test_case "scenario: JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "scenario: replay token regenerates" `Quick
      test_replay_token_regenerates;
    Alcotest.test_case "scenario: replay from a scenario file" `Quick
      test_replay_token_from_file;
    Alcotest.test_case "scenario: malformed replay tokens rejected" `Quick
      test_replay_token_rejects_garbage;
    Alcotest.test_case "shrink: candidates strictly simpler, descent bounded"
      `Quick test_shrink_candidates_strictly_simpler;
    Alcotest.test_case "campaign: records deterministic over outcomes" `Quick
      test_campaign_records_deterministic;
    Alcotest.test_case "campaign: summary aggregates outcomes" `Quick
      test_summarize_aggregates;
    Alcotest.test_case "campaign: one live scenario end to end" `Slow
      test_small_live_campaign;
    Alcotest.test_case "validate: numeric flag parsers" `Quick
      test_validate_tables;
  ]
