(* perf.exe — end-to-end and per-layer benchmark.

     perf.exe run --workload W --seed S --seconds N [--trace 0|1] [--out F]
     perf.exe compare A.json... -- B.json...

   [run] prints every metric as "name value unit" and, last, one JSON
   result line; it exits 1 when a correctness or validity check fails.
   [--out F] writes flat records (workload, name, unit, value), and in a
   traced run the raw spans to F.spans.json. [--scale] shrinks the work
   per round or run for the smoke test. [compare] reads BENCHMARK.json
   from the working directory. *)

module Report = Perfbench.Report
module Spans = Perfbench.Spans

let workloads = [ "mesh_steady"; "mesh_crash"; "sim_n32"; "link_floor" ]

let usage () =
  prerr_endline
    "usage: perf.exe run --workload W --seed S --seconds N [--trace 0|1] \
     [--out F] [--scale X]\n\
    \       perf.exe compare A.json... -- B.json...";
  exit 2

let run args =
  let workload = ref None and seed = ref None and seconds = ref nan in
  let trace = ref false and out = ref None and scale = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := Int64.of_string_opt s;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:nan (float_of_string_opt s);
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--scale" :: s :: rest ->
        scale := Option.value ~default:nan (float_of_string_opt s);
        parse rest
    | _ -> usage ()
  in
  parse args;
  let workload, seed =
    match (!workload, !seed) with
    | Some w, Some s when List.mem w workloads -> (w, s)
    | _ -> usage ()
  in
  let seconds = !seconds and scale = !scale in
  if not (seconds > 0.0 && scale > 0.0 && scale <= 1.0) then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !trace then Spans.enable ();
  let r =
    match workload with
    | "mesh_steady" -> Perfbench.Mesh.steady ~seed ~seconds ~scale
    | "mesh_crash" -> Perfbench.Mesh.crash ~seed ~seconds ~scale
    | "sim_n32" -> Perfbench.Sim.workload ~seed ~seconds ~scale
    | _ -> Perfbench.Floor.workload ~seed ~seconds
  in
  let problems =
    if !trace && Spans.covered_pct () < 90.0 then
      r.Report.problems
      @ [
          Printf.sprintf "named layers cover %.1f%% of the timed wall time (< 90%%)"
            (Spans.covered_pct ());
        ]
    else r.Report.problems
  in
  let all = r.Report.e2e @ r.Report.layers @ r.Report.extra in
  let problems =
    problems
    @ List.filter_map
        (fun (mt : Report.metric) ->
          if Float.is_finite mt.value then None
          else Some (mt.name ^ " was not measured"))
        all
  in
  List.iter Report.print_metric all;
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  Option.iter
    (fun f ->
      Report.write_records f ~workload all;
      if !trace then Spans.write_json (f ^ ".spans.json"))
    !out;
  let correct = problems = [] in
  print_endline
    (Report.result_line ~correct ~attempted:r.Report.attempted
       ~failed:r.Report.failed
       (if !trace then r.Report.layers else r.Report.e2e));
  exit (if correct then 0 else 1)

let compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> usage ()
  in
  match split [] args with
  | [], _ | _, [] -> usage ()
  | a, b -> exit (if Report.compare_runs ~bench:"BENCHMARK.json" a b > 0 then 1 else 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "compare" :: args -> compare args
  | _ -> usage ()
