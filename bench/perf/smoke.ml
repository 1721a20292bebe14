(* Smoke and sync test for the benchmark.

   1. Every workload of BENCHMARK.json runs at --scale 0.02, untraced and
      traced, and exits 0; the metric names it prints, and those in its
      result line, are exactly BENCHMARK.json's end-to-end (untraced) or
      per-layer (traced) names.
   2. The sim_n32 harness, with every probe installed and recording,
      ends each process with the same digest and counters as
      Optimist_core.System on the same schedule: the probes change no
      behaviour.

   Usage: smoke.exe PERF_EXE BENCHMARK_JSON *)

module Json = Optimist_obs.Json
module Engine = Optimist_sim.Engine
module System = Optimist_core.System
module Process = Optimist_core.Process
module Types = Optimist_core.Types
module Chain = Perfbench.Chain
module Sim = Perfbench.Sim
module Spans = Perfbench.Spans
module Report = Perfbench.Report

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke: " ^ s);
      exit 1)
    fmt

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let run_perf exe ~workload ~trace =
  let out = Printf.sprintf "smoke.%s.%s.out" workload trace in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| exe; "run"; "--workload"; workload; "--seed"; "3"; "--seconds"; "0.3";
       "--trace"; trace; "--scale"; "0.02" |]
  in
  let pid = Unix.create_process exe args Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let lines = read_lines out in
  Sys.remove out;
  (status, lines)

let sorted l = List.sort_uniq String.compare l

let check_run exe ~workload ~trace ~expected =
  let status, lines = run_perf exe ~workload ~trace in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "%s (trace %s) exited %d" workload trace c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "%s (trace %s) killed by signal %d" workload trace s);
  let result, printed =
    match List.rev lines with
    | last :: rest -> (last, List.rev rest)
    | [] -> fail "%s printed nothing" workload
  in
  let j =
    match Json.of_string result with
    | Ok j -> j
    | Error e -> fail "%s: bad result line (%s): %s" workload e result
  in
  (match (Json.mem "correct" j, Option.bind (Json.mem "attempted" j) Json.to_int) with
  | Some (Json.Bool true), Some a when a >= 1 -> ()
  | _ -> fail "%s: result not correct: %s" workload result);
  let in_result =
    match Json.mem "metrics" j with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> fail "%s: no metrics object" workload
  in
  if sorted in_result <> sorted expected then
    fail "%s (trace %s): result metrics [%s] differ from BENCHMARK.json [%s]" workload trace
      (String.concat " " (sorted in_result))
      (String.concat " " (sorted expected));
  let printed_names =
    List.filter_map
      (fun l -> match String.split_on_char ' ' l with [ n; _; _ ] -> Some n | _ -> None)
      printed
  in
  List.iter
    (fun name ->
      if not (List.mem name printed_names) then
        fail "%s (trace %s): %s not printed" workload trace name)
    expected

let sync () =
  let p = Sim.plan ~seed:5L ~scale:0.02 in
  Spans.enable ();
  Spans.start_window ();
  let engine, procs =
    Sim.build p ~tracer:Types.null_tracer
      ~on_output:(fun ~pid:_ ~seq:_ _ -> ())
      ~on_inject:ignore
  in
  Engine.run engine;
  Spans.stop_window ();
  if Spans.calls_of Spans.Handler = 0 then fail "sync: the probes recorded nothing";
  let sys = System.create ~seed:p.Sim.seed ~n:Sim.n ~app:(Sim.app p) () in
  Array.iteri
    (fun c (at, pid) -> System.inject_at sys ~at ~pid { Chain.chain = c; hops = Sim.hops })
    p.Sim.injections;
  List.iter (fun (at, pid) -> System.fail_at sys ~at ~pid) p.Sim.crashes;
  System.run sys;
  if Engine.events_fired engine <> Engine.events_fired (System.engine sys) then
    fail "sync: %d events vs System's %d" (Engine.events_fired engine)
      (Engine.events_fired (System.engine sys));
  Array.iteri
    (fun i proc ->
      let ref_proc = System.process sys i in
      if Chain.digest (Process.state proc) <> Chain.digest (Process.state ref_proc) then
        fail "sync: process %d digest differs from System's" i;
      if Process.counters proc <> Process.counters ref_proc then
        fail "sync: process %d counters differ from System's" i)
    procs;
  if Engine.events_fired engine = 0 || System.total sys "failures" = 0 then
    fail "sync: the schedule exercised nothing"

let () =
  match Sys.argv with
  | [| _; exe; bench |] ->
      let exe = if Filename.is_implicit exe then Filename.concat "." exe else exe in
      let j = Report.read_json bench in
      let names key = List.map fst (Report.names_of key j) in
      List.iter
        (fun workload ->
          check_run exe ~workload ~trace:"0" ~expected:(names "end_to_end");
          check_run exe ~workload ~trace:"1" ~expected:(names "per_layer"))
        (names "workloads");
      sync ()
  | _ -> fail "usage: smoke.exe PERF_EXE BENCHMARK_JSON"
