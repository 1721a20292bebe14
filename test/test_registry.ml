(* Tests of the protocol registry: one name table (canonical names and
   aliases resolve, nothing collides), the eight protocols and the live
   subset in order, the mutants as entries (each with a base and a rule,
   and runnable outside the model checker), each protocol's sanitizer
   rules and channel assumption, and the CLI's one-line refusals to run
   a simulation-only protocol live or to audit a protocol that reports
   no ground truth. *)

module Registry = Optimist_protocols.Registry
module Worker = Optimist_live.Worker
module Check = Optimist_check.Check
module P = Optimist_protocols
module Runner = Optimist_runner.Runner
module Schedule = Optimist_workload.Schedule

let test_names_resolve () =
  let names =
    List.concat_map
      (fun (e : Registry.entry) -> e.name :: e.aliases)
      Registry.entries
  in
  Alcotest.(check int) "names and aliases are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check string) "canonical name" e.name (Registry.name e.id);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s resolves to %s" s e.name)
            true
            (Registry.of_string s = Some e.id))
        (e.name :: e.aliases))
    Registry.entries;
  Alcotest.(check bool) "unknown name" true (Registry.of_string "dg2" = None)

let test_live_protocols () =
  Alcotest.(check bool) "Worker.all_protocols: the six, in order" true
    (Worker.all_protocols = Worker.[ Dg; Pessimist; Sender; Sy; Cpo; Koo ]);
  Alcotest.(check (list string)) "their names"
    [
      "damani-garg";
      "pessimistic";
      "sender-based";
      "strom-yemini";
      "checkpoint-only";
      "coordinated";
    ]
    (List.map Registry.name Worker.all_protocols)

let test_rules_and_ordering () =
  let expected =
    Registry.
      [
        (Dg, Check.all_ids);
        (Dg_nohold, Check.all_ids);
        (Pessimist, P.Pessimistic.check_rules);
        (Sender, P.Sender_based.check_rules);
        (Sy, P.Strom_yemini.check_rules);
        (Pk, P.Peterson_kearns.check_rules);
        (Cpo, P.Checkpoint_only.check_rules);
        (Koo, P.Coordinated.check_rules);
      ]
  in
  Alcotest.(check bool) "one row per protocol, in order" true
    (List.map fst expected = Registry.all);
  List.iter
    (fun (id, rules) ->
      Alcotest.(check (list string)) (Registry.name id) rules
        (Registry.check_rules id))
    expected;
  Alcotest.(check (list string)) "damani-garg live: the offline battery"
    Check.offline_ids
    (Worker.live_check_rules Worker.Dg);
  List.iter
    (fun id ->
      if id <> Worker.Dg then
        Alcotest.(check (list string))
          (Registry.name id ^ " live: its declared rules")
          (Registry.check_rules id) (Worker.live_check_rules id))
    Worker.all_protocols;
  Alcotest.(check bool) "FIFO: strom-yemini and peterson-kearns" true
    (List.filter Registry.fifo Registry.all = Registry.[ Sy; Pk ])

(* Every mutant is an entry: it resolves by name, varies one of the
   eight protocols with a rule the offline linter checks, and runs
   nowhere live. *)
let test_mutants () =
  Alcotest.(check (list string)) "the mutants, in order"
    [ "skip-piggyback"; "skip-dedup"; "eager-rollback"; "ack-before-fsync" ]
    (List.map Registry.name Registry.mutants);
  List.iter
    (fun id ->
      let e = Registry.entry id in
      Alcotest.(check bool) (e.name ^ " resolves") true
        (Registry.of_string e.name = Some id);
      Alcotest.(check bool) (e.name ^ " has a base protocol") true
        (e.base <> id && List.mem e.base Registry.all);
      match e.mutant with
      | None -> Alcotest.failf "%s has no mutant record" e.name
      | Some m ->
          Alcotest.(check bool) (e.name ^ " has an offline rule") true
            (List.mem m.rule Check.offline_ids))
    Registry.mutants;
  Alcotest.(check bool) "mutants are sim-only" true
    (List.for_all
       (fun id -> not (List.mem id Registry.live_protocols))
       Registry.mutants)

(* A mutant runs in the simulator as any protocol does: skip-dedup
   delivers what a duplicating network repeats, which the strict
   sanitizer reports as OPT003, and its base stays clean under the same
   run ([recsim run -n 6 --failures 2 --dup 0.1 --seed 1 --check=strict]). *)
let test_mutant_runs () =
  let rules protocol =
    let r =
      Runner.run
        {
          Runner.default_params with
          Runner.protocol;
          n = 6;
          dup = 0.1;
          check = Runner.Check_strict;
          faults =
            Schedule.random_crashes ~seed:101L ~n:6 ~failures:2
              ~window:(50.0, 450.0);
        }
    in
    List.map (fun (v : Check.violation) -> v.rule.Check.id) r.Runner.r_check
  in
  Alcotest.(check bool) "skip-dedup reports OPT003" true
    (List.mem "OPT003" (rules Registry.Skip_dedup));
  Alcotest.(check (list string)) "damani-garg is clean" []
    (rules Registry.Dg)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Run the CLI with [args]; its exit code, stdout and stderr lines. *)
let recsim_out args =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "recsim.exe"))
  in
  let out = Filename.temp_file "recsim" ".out" in
  let err = Filename.temp_file "recsim" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
         (Filename.quote out) (Filename.quote err))
  in
  let o = read_lines out and e = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* Its exit code and stderr lines. *)
let recsim args =
  let code, _, err = recsim_out args in
  (code, err)

(* A one-line error naming every protocol in [names]. *)
let check_names lines names =
  match lines with
  | [ line ] ->
      List.iter
        (fun name ->
          Alcotest.(check bool) ("the error names " ^ name) true
            (contains line name))
        names
  | _ -> Alcotest.failf "expected a one-line error, got %d lines" (List.length lines)

let eight =
  [
    "damani-garg";
    "damani-garg-nohold";
    "pessimistic";
    "sender-based";
    "strom-yemini";
    "peterson-kearns";
    "checkpoint-only";
    "coordinated";
  ]

let test_list_prints_the_eight () =
  let code, out, _ = recsim_out "list" in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check (list string)) "the eight, no mutant" eight out

let test_live_refuses_sim_only () =
  let out =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optreg-%d" (Unix.getpid ()))
  in
  let code, lines =
    recsim ("live run --protocol peterson-kearns --out " ^ Filename.quote out)
  in
  Alcotest.(check bool) "exits non-zero" true (code <> 0);
  Alcotest.(check bool) "nothing was run" false (Sys.file_exists out);
  check_names lines (List.map Registry.name Registry.live_protocols)

let test_oracle_refuses_baseline () =
  let code, lines =
    recsim "run --protocol sender-based --oracle -n 3 --failures 1"
  in
  Alcotest.(check int) "exits 2" 2 code;
  check_names lines
    (List.filter_map
       (fun id ->
         if (Registry.entry id).ground_truth then Some (Registry.name id)
         else None)
       Registry.all)

let suite =
  [
    Alcotest.test_case "names and aliases resolve, no collisions" `Quick
      test_names_resolve;
    Alcotest.test_case "live protocols: the six, in order" `Quick
      test_live_protocols;
    Alcotest.test_case "check rules and FIFO flags per protocol" `Quick
      test_rules_and_ordering;
    Alcotest.test_case "mutants: a base and a rule each" `Quick test_mutants;
    Alcotest.test_case "a mutant runs in the simulator" `Quick
      test_mutant_runs;
    Alcotest.test_case "list prints the eight protocols" `Quick
      test_list_prints_the_eight;
    Alcotest.test_case "live run refuses a sim-only protocol in one line"
      `Quick test_live_refuses_sim_only;
    Alcotest.test_case "run --oracle refuses a baseline in one line" `Quick
      test_oracle_refuses_baseline;
  ]
