(* Tests of the optimist.check sanitizer/linter: the rule table, the
   FTVC comparison laws the checker relies on (property-tested via
   Prng), mutated-trace fixtures that must each trip exactly their own
   rule, direct monitor feeds for rules the fixtures don't cover, the
   streaming JSONL reader, and the acceptance sweep: every protocol
   under failures must sanitize clean. *)

module Check = Optimist_check.Check
module Trace = Optimist_obs.Trace
module Metrics = Optimist_obs.Metrics
module Ftvc = Optimist_clock.Ftvc
module Vclock = Optimist_clock.Vclock
module Prng = Optimist_util.Prng
module Runner = Optimist_runner.Runner
module Registry = Optimist_protocols.Registry
module Schedule = Optimist_workload.Schedule

let ev ?(at = 1.0) ?(pid = 0) ?(ver = 0) ?(clock = [||]) kind =
  { Trace.at; pid; ver; clock; kind }

let ids vs = List.map (fun (v : Check.violation) -> v.Check.rule.Check.id) vs

(* --- rule table --- *)

let test_rule_table () =
  Alcotest.(check int) "rule count" 14 (List.length Check.rules);
  List.iteri
    (fun i (r : Check.rule) ->
      Alcotest.(check string) "ids sequential"
        (Printf.sprintf "OPT%03d" (i + 1))
        r.Check.id)
    Check.rules;
  (match Check.find_rule "opt005" with
  | Some r -> Alcotest.(check string) "id lookup case-insensitive" "OPT005" r.Check.id
  | None -> Alcotest.fail "id lookup failed");
  (match Check.find_rule "clock-monotonic" with
  | Some r -> Alcotest.(check string) "slug lookup" "OPT005" r.Check.id
  | None -> Alcotest.fail "slug lookup failed");
  Alcotest.(check bool) "unknown rejected" true (Check.find_rule "OPT099" = None);
  Alcotest.(check bool) "offline excludes oracle-agreement" false
    (List.mem "OPT014" Check.offline_ids);
  Alcotest.(check bool) "all ids include oracle-agreement" true
    (List.mem "OPT014" Check.all_ids)

(* --- FTVC comparison laws (property tests) --- *)

(* Small ranges so the leq premises of antisymmetry/transitivity are
   hit often across the 2000 draws. *)
let random_clock rng w =
  Array.init w (fun _ -> { Ftvc.ver = Prng.int rng 3; ts = Prng.int rng 4 })

let test_clock_laws () =
  let rng = Prng.create 42L in
  for _ = 1 to 2000 do
    let w = Prng.int_in rng 1 4 in
    let a = random_clock rng w in
    let b = random_clock rng w in
    let c = random_clock rng w in
    if not (Check.clock_leq a a) then Alcotest.fail "reflexivity";
    if Check.clock_leq a b && Check.clock_leq b a && not (Check.clock_equal a b)
    then Alcotest.fail "antisymmetry";
    if Check.clock_leq a b && Check.clock_leq b c && not (Check.clock_leq a c)
    then Alcotest.fail "transitivity"
  done;
  Alcotest.(check bool) "width mismatch incomparable" false
    (Check.clock_leq [||] (random_clock rng 2))

let test_clock_vclock_agreement () =
  let rng = Prng.create 7L in
  for _ = 1 to 2000 do
    let w = Prng.int_in rng 1 4 in
    let ts_a = Array.init w (fun _ -> Prng.int rng 5) in
    let ts_b = Array.init w (fun _ -> Prng.int rng 5) in
    let fc ts = Array.map (fun t -> { Ftvc.ver = 0; ts = t }) ts in
    let vc ts = Vclock.of_list (Array.to_list ts) in
    Alcotest.(check bool) "agrees with Vclock when all versions equal"
      (Vclock.leq (vc ts_a) (vc ts_b))
      (Check.clock_leq (fc ts_a) (fc ts_b))
  done

(* --- fixtures --- *)

(* Resolve fixtures next to the test binary so both `dune runtest`
   (cwd = build sandbox) and `dune exec` (cwd = repo root) find them. *)
let fixture file =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat "fixtures" file)

let lint ?only ?ignore file =
  match Check.Lint.run ?only ?ignore (fixture file) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "lint %s: %s" file msg

let test_clean_fixture () =
  let r = lint "clean.jsonl" in
  Alcotest.(check int) "events" 15 r.Check.Lint.events;
  Alcotest.(check int) "no parse errors" 0 r.Check.Lint.parse_errors;
  Alcotest.(check (list string)) "clean" [] (ids r.Check.Lint.violations)

(* Each mutated fixture must trip exactly its own rule and nothing
   else — the linter's rules are independent enough to name the single
   seeded defect. *)
let test_mutated_fixtures () =
  List.iter
    (fun (file, rule, count) ->
      let r = lint file in
      Alcotest.(check (list string))
        (file ^ " trips exactly " ^ rule)
        (List.init count (fun _ -> rule))
        (ids r.Check.Lint.violations))
    [
      ("forged_orphan_delivery.jsonl", "OPT004", 1);
      ("stale_version_deliver.jsonl", "OPT008", 1);
      ("double_rollback.jsonl", "OPT011", 1);
      ("ftvc_regression.jsonl", "OPT005", 1);
      ("bad_schema.jsonl", "OPT001", 2);
    ]

let test_violation_line_numbers () =
  let r = lint "ftvc_regression.jsonl" in
  match r.Check.Lint.violations with
  | [ v ] -> Alcotest.(check (option int)) "1-based line" (Some 2) v.Check.line
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_lint_filters () =
  let r = lint ~ignore:[ "OPT004" ] "forged_orphan_delivery.jsonl" in
  Alcotest.(check (list string)) "--ignore silences" [] (ids r.Check.Lint.violations);
  let r = lint ~only:[ "clock-monotonic" ] "ftvc_regression.jsonl" in
  Alcotest.(check (list string)) "--rule by slug" [ "OPT005" ]
    (ids r.Check.Lint.violations);
  (match Check.Lint.run ~only:[ "OPT099" ] (fixture "clean.jsonl") with
  | Ok _ -> Alcotest.fail "unknown rule accepted"
  | Error _ -> ());
  (match Check.Lint.run ~only:[ "OPT014" ] (fixture "clean.jsonl") with
  | Ok _ -> Alcotest.fail "online-only rule accepted offline"
  | Error _ -> ());
  match Check.Lint.run (fixture "no_such_file.jsonl") with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* The reader tolerates every schema the writer ever produced (v2 before
   telemetry, v3 with it) and skips span/snapshot records entirely; only
   a version from the future trips the schema rule. *)
let test_schema_tolerance () =
  let header v =
    Printf.sprintf
      {|{"at":0.0,"pid":-1,"ver":0,"kind":"custom","name":"schema","detail":"version=%d"}|}
      v
  in
  let span =
    {|{"at":1.0,"pid":0,"ver":0,"kind":"span","name":"handle","dur":0.001}|}
  in
  let snap =
    {|{"at":2.0,"pid":0,"ver":0,"kind":"snapshot","protocol":"dg","values":{"gen":0.0,"delivered":3.0}}|}
  in
  let run lines =
    let path = Filename.temp_file "check_schema" ".jsonl" in
    let oc = open_out path in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      lines;
    close_out oc;
    let r =
      match Check.Lint.run path with
      | Ok r -> r
      | Error m -> Alcotest.failf "lint: %s" m
    in
    Sys.remove path;
    (ids r.Check.Lint.violations, Check.Lint.schema_mismatch r)
  in
  Alcotest.(check (pair (list string) (option int)))
    "v2 header accepted" ([], None)
    (run [ header 2 ]);
  Alcotest.(check (pair (list string) (option int)))
    "v3 telemetry records skipped" ([], None)
    (run [ header 3; span; snap ]);
  Alcotest.(check (pair (list string) (option int)))
    "future version flagged (strict escalates)" ([], Some 4)
    (run [ header 4; span ])

(* --- monitor rules the fixtures don't reach --- *)

let test_monitor_restart_pairing () =
  let m = Check.Monitor.create () in
  Check.Monitor.feed m (ev ~pid:2 ~ver:1 (Trace.Restart { new_ver = 1 }));
  Alcotest.(check (list string)) "restart without failure" [ "OPT007" ]
    (ids (Check.Monitor.finish m))

let test_monitor_unknown_send () =
  let m = Check.Monitor.create () in
  Check.Monitor.feed m (ev ~pid:0 (Trace.Deliver { uid = 9; src = 1 }));
  Alcotest.(check (list string)) "delivery never sent" [ "OPT002" ]
    (ids (Check.Monitor.finish m))

let test_monitor_output_commit_safety () =
  let m = Check.Monitor.create () in
  let clock = [| { Ftvc.ver = 0; ts = 1 }; { Ftvc.ver = 0; ts = 9 } |] in
  Check.Monitor.feed m (ev ~pid:0 ~clock (Trace.Output_commit { seq = 1 }));
  (* The orphaning token only shows up later in the trace: the commit
     rule must have anticipated it, so the check is global. *)
  Check.Monitor.feed m
    (ev ~at:2.0 ~pid:0 (Trace.Token_recv { origin = 1; ver = 0; ts = 4 }));
  Alcotest.(check (list string)) "orphaned commit" [ "OPT012" ]
    (ids (Check.Monitor.finish m));
  Alcotest.(check (list string)) "finish idempotent" [ "OPT012" ]
    (ids (Check.Monitor.finish m))

let test_monitor_incarnation_decrease () =
  let m = Check.Monitor.create () in
  Check.Monitor.feed m (ev ~pid:1 ~ver:2 (Trace.Send { uid = 1; dst = 0 }));
  Check.Monitor.feed m (ev ~at:2.0 ~pid:1 ~ver:1 (Trace.Checkpoint { position = 0 }));
  Alcotest.(check (list string)) "version went backwards" [ "OPT006" ]
    (ids (Check.Monitor.finish m))

let test_monitor_disabled_rules () =
  let m = Check.Monitor.create ~rules:[ "OPT005" ] () in
  Check.Monitor.feed m (ev ~pid:2 ~ver:1 (Trace.Restart { new_ver = 1 }));
  Alcotest.(check (list string)) "disabled rule is silent" []
    (ids (Check.Monitor.finish m));
  Alcotest.check_raises "unknown rule rejected"
    (Invalid_argument "Check.Monitor.create: unknown rule \"OPT099\"")
    (fun () -> ignore (Check.Monitor.create ~rules:[ "OPT099" ] ()))

let test_monitor_cross_check () =
  let m = Check.Monitor.create () in
  Check.Monitor.feed m (ev ~pid:0 Trace.Failure);
  Alcotest.(check int) "failures counted" 1 (Check.Monitor.failures m);
  Alcotest.(check int) "events counted" 1 (Check.Monitor.events_seen m);
  Alcotest.(check int) "no rollbacks" 0 (Check.Monitor.rollbacks_of m 1);
  Check.Monitor.cross_check m ~n:2 ~failures:2 ~rollbacks_of:(fun p ->
      if p = 1 then 1 else 0);
  Alcotest.(check (list string)) "oracle disagreement flagged"
    [ "OPT014"; "OPT014" ]
    (ids (Check.Monitor.finish m))

(* --- streaming reader --- *)

let test_iter_file_line_numbers () =
  let path = Filename.temp_file "check_reader" ".jsonl" in
  let oc = open_out path in
  output_string oc
    "\n{\"at\":1,\"pid\":0,\"ver\":0,\"kind\":\"failure\"}\n\nnot json\n";
  close_out oc;
  let seen = ref [] in
  Trace.iter_file path ~f:(fun ~line res ->
      seen := (line, Result.is_ok res) :: !seen);
  Sys.remove path;
  Alcotest.(check (list (pair int bool)))
    "1-based line numbers, blank lines skipped"
    [ (2, true); (4, false) ]
    (List.rev !seen)

(* --- acceptance: every protocol sanitizes clean under failures --- *)

let checked_params protocol seed =
  let faults =
    Schedule.random_crashes
      ~seed:(Int64.add seed 100L)
      ~n:4 ~failures:2 ~window:(30.0, 270.0)
  in
  {
    Runner.default_params with
    Runner.protocol;
    seed;
    duration = 300.0;
    faults;
    check = Runner.Check;
  }

let test_all_protocols_clean () =
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let r = Runner.run (checked_params protocol seed) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed=%Ld sanitizes clean"
               (Registry.name protocol) seed)
            [] (ids r.Runner.r_check);
          Alcotest.(check int) "check.violations metric is zero" 0
            (Metrics.total r.Runner.r_registry "check.violations"))
        [ 1L; 2L; 3L ])
    Registry.all

let test_oracle_cross_check_clean () =
  let p =
    { (checked_params Registry.Dg 5L) with Runner.with_oracle = true }
  in
  let r = Runner.run p in
  Alcotest.(check (list string)) "sanitizer incl. oracle-agreement clean" []
    (ids r.Runner.r_check);
  Alcotest.(check (list string)) "oracle audit clean" [] r.Runner.r_violations

let suite =
  [
    Alcotest.test_case "rule table" `Quick test_rule_table;
    Alcotest.test_case "clock comparison laws" `Quick test_clock_laws;
    Alcotest.test_case "clock agrees with Vclock" `Quick
      test_clock_vclock_agreement;
    Alcotest.test_case "clean fixture lints clean" `Quick test_clean_fixture;
    Alcotest.test_case "mutated fixtures trip their rule" `Quick
      test_mutated_fixtures;
    Alcotest.test_case "violations carry line numbers" `Quick
      test_violation_line_numbers;
    Alcotest.test_case "rule filters" `Quick test_lint_filters;
    Alcotest.test_case "schema tolerance" `Quick test_schema_tolerance;
    Alcotest.test_case "monitor: restart pairing" `Quick
      test_monitor_restart_pairing;
    Alcotest.test_case "monitor: unknown send" `Quick test_monitor_unknown_send;
    Alcotest.test_case "monitor: output-commit safety" `Quick
      test_monitor_output_commit_safety;
    Alcotest.test_case "monitor: incarnation decrease" `Quick
      test_monitor_incarnation_decrease;
    Alcotest.test_case "monitor: rule selection" `Quick
      test_monitor_disabled_rules;
    Alcotest.test_case "monitor: oracle cross-check" `Quick
      test_monitor_cross_check;
    Alcotest.test_case "streaming reader line numbers" `Quick
      test_iter_file_line_numbers;
    Alcotest.test_case "all protocols sanitize clean" `Quick
      test_all_protocols_clean;
    Alcotest.test_case "oracle cross-check on a live run" `Quick
      test_oracle_cross_check_clean;
  ]
