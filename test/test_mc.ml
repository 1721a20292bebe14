(* Model-checker tests: the DPOR/naive equivalence property on tiny
   configurations, one catch test per shipped mutant (including the
   replay -> offline-lint round trip), and counterexample JSON
   round-tripping. *)

module Model = Optimist_mc.Model
module Explorer = Optimist_mc.Explorer
module Strategy = Optimist_mc.Strategy
module Dpor = Optimist_mc.Dpor
module Cx = Optimist_mc.Counterexample
module Check = Optimist_check.Check
module Runner = Optimist_runner.Runner
module Registry = Optimist_protocols.Registry

let explore ?(mode = Explorer.Dpor) ?(depth = 6) ?(fingerprint = false)
    ?(stop_on_violation = false) ?(log = true) cfg =
  Explorer.explore
    ~build:(fun () -> Model.build cfg)
    ~crashes:cfg.Model.crashes
    {
      Explorer.default_opts with
      Explorer.depth;
      mode;
      fingerprint;
      stop_on_violation;
      log_schedules = log;
    }

(* DPOR must visit a subset of the naive schedules yet report the
   identical violation set — checked both on a correct model and on a
   violating mutant, with fingerprinting off so neither side prunes by
   state. *)
let dpor_vs_naive cfg ~depth () =
  let naive = explore ~mode:Explorer.Naive ~depth cfg in
  let dpor = explore ~mode:Explorer.Dpor ~depth cfg in
  Alcotest.(check bool) "naive exhausted" true naive.Explorer.o_exhausted;
  Alcotest.(check bool) "dpor exhausted" true dpor.Explorer.o_exhausted;
  Alcotest.(check bool)
    "dpor explores no more schedules than naive" true
    (dpor.Explorer.o_schedules <= naive.Explorer.o_schedules);
  let key ds = Dpor.seq_to_string ds in
  let module S = Set.Make (String) in
  let naive_set = S.of_list (List.map key naive.Explorer.o_schedule_log) in
  List.iter
    (fun ds ->
      Alcotest.(check bool)
        (Printf.sprintf "dpor schedule [%s] also enumerated by naive" (key ds))
        true (S.mem (key ds) naive_set))
    dpor.Explorer.o_schedule_log;
  Alcotest.(check (list string))
    "identical violation sets" naive.Explorer.o_all_violations
    dpor.Explorer.o_all_violations

let test_equiv_clean () =
  dpor_vs_naive
    { Model.default_cfg with Model.n = 2; msgs = 2; hops = 1; crashes = 1 }
    ~depth:5 ()

let test_equiv_mutant () =
  dpor_vs_naive
    {
      Model.protocol = Registry.Eager_rollback;
      n = 2;
      msgs = 1;
      hops = 1;
      crashes = 1;
    }
    ~depth:6 ()

(* The acceptance configuration: unmutated Damani-Garg explored
   exhaustively, and the reduction actually reduces. *)
let test_reduction_and_clean_dg () =
  let cfg = Model.default_cfg in
  let naive =
    explore ~mode:Explorer.Naive ~depth:8 ~fingerprint:true ~log:false cfg
  in
  let dpor =
    explore ~mode:Explorer.Dpor ~depth:8 ~fingerprint:true ~log:false cfg
  in
  Alcotest.(check bool) "exhaustive" true
    (naive.Explorer.o_exhausted && dpor.Explorer.o_exhausted);
  Alcotest.(check (list string)) "no violations (naive)" []
    naive.Explorer.o_all_violations;
  Alcotest.(check (list string)) "no violations (dpor)" []
    dpor.Explorer.o_all_violations;
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) strictly fewer schedules than naive (%d)"
       dpor.Explorer.o_schedules naive.Explorer.o_schedules)
    true
    (dpor.Explorer.o_schedules < naive.Explorer.o_schedules)

(* Each shipped mutant must be caught, its counterexample must replay,
   and the replayed JSONL trace must be rejected by the offline linter
   on exactly the mutant's rule. *)
let test_mutant id () =
  let e = Registry.entry id in
  let rule = (Option.get e.Registry.mutant).Registry.rule in
  let cfg = { Model.default_cfg with Model.protocol = id } in
  let outcome =
    explore ~mode:Explorer.Dpor ~depth:8 ~fingerprint:true
      ~stop_on_violation:true ~log:false cfg
  in
  match outcome.Explorer.o_violation with
  | None -> Alcotest.failf "mutant %s: no counterexample found" e.Registry.name
  | Some (decisions, violations) ->
      Alcotest.(check bool)
        (Printf.sprintf "violations mention %s" rule)
        true
        (List.exists
           (fun v ->
             String.length v >= String.length rule
             && String.sub v 0 (String.length rule) = rule)
           violations);
      let cx =
        { Cx.cx_cfg = cfg; cx_decisions = decisions;
          cx_violations = violations }
      in
      let file = Filename.temp_file "mc_cx" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          let oc = open_out file in
          let replayed =
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Cx.replay ~write:(output_string oc) cx)
          in
          Alcotest.(check bool) "replay reproduces a violation" true
            (replayed <> []);
          match Check.Lint.run file with
          | Error msg -> Alcotest.failf "lint failed to run: %s" msg
          | Ok report ->
              Alcotest.(check bool)
                (Printf.sprintf "offline linter flags %s" rule)
                true
                (List.exists
                   (fun (v : Check.violation) -> v.Check.rule.Check.id = rule)
                   report.Check.Lint.violations))

(* Counterexamples survive the JSON round trip byte-exactly. *)
let test_cx_roundtrip () =
  let cx =
    {
      Cx.cx_cfg =
        { Model.default_cfg with Model.protocol = Registry.Eager_rollback };
      cx_decisions =
        [
          Dpor.Fire { kind = "deliver"; pid = 1; src = 0; info = "data";
                      nth = 1 };
          Dpor.Crash 2;
          Dpor.Fire { kind = "timer"; pid = 0; src = -1; info = "flush";
                      nth = 0 };
        ];
      cx_violations = [ "OPT011 rollback-bound: rollback without a detected \
                         orphan" ];
    }
  in
  match Cx.of_string (Cx.to_string cx) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok cx' ->
      Alcotest.(check bool) "round trip is identity" true (cx = cx');
      Alcotest.(check string) "second render is stable" (Cx.to_string cx)
        (Cx.to_string cx')

(* A counterexample names a mutant by its base protocol and the
   mutation. A file that names no variant the registry has, or sizes the
   model cannot build, decodes to an error, and [recsim mc replay]
   refuses it in one line with exit 2. *)
let cx_file ?(decisions = "") ~protocol ~mutation ~procs () =
  Printf.sprintf
    {|{"version":1,"kind":"mc-counterexample","protocol":%S,"mutation":%S,"procs":%d,"msgs":2,"hops":2,"crashes":1,"decisions":[%s],"violations":[]}|}
    protocol mutation procs decisions

let replay_refuses contents =
  let file = Filename.temp_file "mc_cx" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc contents);
      let code, lines = Test_registry.recsim ("mc replay " ^ file) in
      Alcotest.(check int) "mc replay exits 2" 2 code;
      Alcotest.(check int) "with one line" 1 (List.length lines))

let test_cx_rejects (_, protocol, mutation, procs) () =
  let contents = cx_file ~protocol ~mutation ~procs () in
  Alcotest.(check bool) "decodes to an error" true
    (Result.is_error (Cx.of_string contents));
  replay_refuses contents

(* A schedule whose decision is never enabled decodes, but cannot be
   replayed: a crash of a process the configuration does not have. *)
let test_cx_stale () =
  replay_refuses
    (cx_file ~protocol:"damani-garg" ~mutation:"" ~procs:3
       ~decisions:{|{"t":"crash","pid":9}|} ())

(* Replaying a decision prefix must be deterministic: the same prefix
   reaches the same branch points and the same verdict. *)
let test_replay_deterministic () =
  let cfg =
    { Model.default_cfg with Model.protocol = Registry.Eager_rollback }
  in
  let outcome =
    explore ~mode:Explorer.Dpor ~depth:8 ~fingerprint:true
      ~stop_on_violation:true ~log:false cfg
  in
  match outcome.Explorer.o_violation with
  | None -> Alcotest.fail "expected a counterexample"
  | Some (decisions, violations) ->
      let run () =
        Strategy.execute
          ~build:(fun () -> Model.build cfg)
          ~crashes:cfg.Model.crashes ~prefix:decisions
          ~depth:(List.length decisions) ()
      in
      let a = run () and b = run () in
      Alcotest.(check (list string))
        "same violations as the explorer" violations
        a.Strategy.x_violations;
      Alcotest.(check bool) "two replays agree" true
        (Strategy.decisions_of a = Strategy.decisions_of b
        && a.Strategy.x_violations = b.Strategy.x_violations)

let suite =
  [
    Alcotest.test_case "dpor-subset-equal-violations (clean)" `Quick
      test_equiv_clean;
    Alcotest.test_case "dpor-subset-equal-violations (mutant)" `Quick
      test_equiv_mutant;
    Alcotest.test_case "unmutated DG exhaustive, dpor reduces" `Quick
      test_reduction_and_clean_dg;
    Alcotest.test_case "counterexample json round-trip" `Quick
      test_cx_roundtrip;
    Alcotest.test_case "replay deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "replay refuses a stale schedule" `Quick
      test_cx_stale;
  ]
  @ List.map
      (fun ((what, _, _, _) as case) ->
        Alcotest.test_case ("cx rejects " ^ what) `Quick (test_cx_rejects case))
      [
        ("unknown mutation", "damani-garg", "bogus", 3);
        ("one process", "damani-garg", "skip-dedup", 1);
        ("foreign mutation", "damani-garg", "ack-before-fsync", 3);
        ("an ablation", "damani-garg", "damani-garg-nohold", 3);
      ]
  @ List.map
      (fun id ->
        Alcotest.test_case ("catch mutant " ^ Registry.name id) `Quick
          (test_mutant id))
      Registry.mutants
