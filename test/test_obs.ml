(* Tests of the optimist.obs subsystem: trace ring buffering, JSONL
   round-trips, sink lifecycle, chrome-export shape, metrics label
   aggregation, and golden-trace determinism of a full faulty run. *)

module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Metrics = Optimist_obs.Metrics
module Report = Optimist_obs.Report
module Span = Optimist_obs.Span
module Ftvc = Optimist_clock.Ftvc
module Runner = Optimist_runner.Runner
module Schedule = Optimist_workload.Schedule

let ev ?(at = 1.5) ?(pid = 0) ?(ver = 0) ?(clock = [||]) kind =
  { Trace.at; pid; ver; clock; kind }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  loop 0

(* --- ring buffer --- *)

let test_ring_order () =
  let ring = Trace.Ring.create ~capacity:4 () in
  let tr = Trace.create () in
  Alcotest.(check bool) "disabled before attach" false (Trace.enabled tr);
  Trace.attach tr (Trace.Ring.sink ring);
  Alcotest.(check bool) "enabled after attach" true (Trace.enabled tr);
  for i = 1 to 6 do
    Trace.emit tr (ev ~at:(float_of_int i) (Trace.Checkpoint { position = i }))
  done;
  Alcotest.(check int) "bounded by capacity" 4 (Trace.Ring.length ring);
  let ats =
    List.map (fun e -> int_of_float e.Trace.at) (Trace.Ring.to_list ring)
  in
  Alcotest.(check (list int)) "oldest evicted, order kept" [ 3; 4; 5; 6 ] ats;
  Trace.Ring.clear ring;
  Alcotest.(check int) "clear empties" 0 (Trace.Ring.length ring)

let test_null_recorder () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.emit Trace.null (ev Trace.Failure);
  let raised =
    try
      Trace.attach Trace.null (Trace.sink (fun _ -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "attach to null rejected" true raised

(* --- JSONL encoding --- *)

let all_kinds =
  [
    Trace.Send { uid = 7; dst = 2 };
    Trace.Deliver { uid = 7; src = 1 };
    Trace.Drop_obsolete { uid = -1; src = 3 };
    Trace.Checkpoint { position = 12 };
    Trace.Log_flush { stable = 9 };
    Trace.Failure;
    Trace.Restart { new_ver = 2 };
    Trace.Token_sent { origin = 1; ver = 2; ts = 33 };
    Trace.Token_recv { origin = 1; ver = 2; ts = 33 };
    Trace.Rollback { discarded = 4 };
    Trace.Orphan_detected { origin = 0; ver = 1; ts = 5 };
    Trace.Output_commit { seq = 3 };
    Trace.Custom { name = "net.drop"; detail = "uid=12" };
    Trace.Custom { name = "held"; detail = "" };
    Trace.Span { name = "recovery"; dur = 0.25 };
    Trace.Snapshot
      { protocol = "dg"; values = [ ("gen", 1.0); ("recovery.latency", 0.003) ] };
  ]

let test_jsonl_roundtrip () =
  List.iteri
    (fun i k ->
      let clock =
        if i mod 2 = 0 then [||]
        else [| { Ftvc.ver = 1; ts = 42 }; { Ftvc.ver = 0; ts = 7 } |]
      in
      let e =
        ev ~at:(0.5 +. (7.25 *. float_of_int i)) ~pid:i ~ver:(i mod 3) ~clock k
      in
      match Trace.of_line (Trace.to_line e) with
      | Error msg -> Alcotest.failf "round-trip %s: %s" (Trace.kind_name k) msg
      | Ok e' ->
          Alcotest.(check bool)
            ("round-trip " ^ Trace.kind_name k)
            true (e = e'))
    all_kinds

let test_jsonl_rejects_garbage () =
  let bad l =
    match Trace.of_line l with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not json" true (bad "not json");
  Alcotest.(check bool) "missing fields" true (bad {|{"at":1.0}|});
  Alcotest.(check bool) "unknown kind" true
    (bad {|{"at":1.0,"pid":0,"ver":0,"kind":"warp"}|})

let test_jsonl_sink () =
  let buf = Buffer.create 256 in
  let tr = Trace.create () in
  Trace.attach tr (Trace.jsonl_sink (Buffer.add_string buf));
  Trace.emit tr (ev Trace.Failure);
  Trace.emit tr (ev ~at:2.0 (Trace.Restart { new_ver = 1 }));
  Trace.close tr;
  Alcotest.(check bool) "close disables" false (Trace.enabled tr);
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "header plus one line per event" 3 (List.length lines);
  (match Trace.of_line (List.hd lines) with
  | Ok hd ->
      Alcotest.(check (option int))
        "first line is the schema header"
        (Some Trace.schema_version)
        (Trace.schema_of_event hd)
  | Error m -> Alcotest.failf "header line unparsable: %s" m);
  List.iter
    (fun l ->
      match Trace.of_line l with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "sink line unparsable: %s" m)
    lines

(* Each event is one call of the writer: the line and its newline
   together, so a writer that flushes per call writes whole lines. *)
let test_jsonl_sink_one_write () =
  let writes = ref [] in
  let tr = Trace.create () in
  Trace.attach tr (Trace.jsonl_sink (fun s -> writes := s :: !writes));
  let events =
    [ ev Trace.Failure; ev ~at:2.0 ~clock:[| { Ftvc.ver = 1; ts = 3 } |]
        (Trace.Restart { new_ver = 1 }) ]
  in
  List.iter (Trace.emit tr) events;
  Trace.close tr;
  Alcotest.(check (list string)) "header, then one write per event"
    (List.map
       (fun e -> Trace.to_line e ^ "\n")
       (Trace.schema_header :: events))
    (List.rev !writes)

(* --- the direct encoder against the Json.t reference --- *)

(* Ints and floats at the edges of their formats. *)
let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, small_signed_int);
        (2, int);
        (1, oneofl [ 0; -1; 9; 10; -10; min_int; max_int; min_int + 1 ]);
      ])

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, float);
        (2, map float_of_int small_signed_int);
        ( 2,
          oneofl
            [
              0.0; -0.0; 0.5; -2.5; 1e-300; 5e-324; 1e300; -1e300; 1e15;
              1e15 -. 1.0; -1e15; 999999999999999.0; 1e16; 0.1; 1.0 /. 3.0;
              Float.nan; Float.infinity; Float.neg_infinity;
              float_of_int max_int; float_of_int min_int;
            ] );
      ])

(* Names with quotes, backslashes, control and non-ASCII bytes. *)
let gen_string =
  QCheck.Gen.(
    frequency
      [
        (3, string_size ~gen:printable (0 -- 8));
        (2, string_size ~gen:char (0 -- 8));
        (1, oneofl [ ""; "\""; "\\"; "a\nb\tc\r"; "\000\031\127"; "é" ]);
      ])

let gen_kind =
  let open QCheck.Gen in
  let token make = map3 make gen_int gen_int gen_int in
  oneof
    [
      map2 (fun uid dst -> Trace.Send { uid; dst }) gen_int gen_int;
      map2 (fun uid src -> Trace.Deliver { uid; src }) gen_int gen_int;
      map2 (fun uid src -> Trace.Drop_obsolete { uid; src }) gen_int gen_int;
      map (fun position -> Trace.Checkpoint { position }) gen_int;
      map (fun stable -> Trace.Log_flush { stable }) gen_int;
      return Trace.Failure;
      map (fun new_ver -> Trace.Restart { new_ver }) gen_int;
      token (fun origin ver ts -> Trace.Token_sent { origin; ver; ts });
      token (fun origin ver ts -> Trace.Token_recv { origin; ver; ts });
      map (fun discarded -> Trace.Rollback { discarded }) gen_int;
      token (fun origin ver ts -> Trace.Orphan_detected { origin; ver; ts });
      map (fun seq -> Trace.Output_commit { seq }) gen_int;
      map2 (fun name dur -> Trace.Span { name; dur }) gen_string gen_float;
      map2
        (fun protocol values -> Trace.Snapshot { protocol; values })
        gen_string
        (list_size (0 -- 4) (pair gen_string gen_float));
      map2 (fun name detail -> Trace.Custom { name; detail }) gen_string gen_string;
    ]

let gen_event =
  QCheck.Gen.(
    map3
      (fun (at, pid, ver) clock kind -> { Trace.at; pid; ver; clock; kind })
      (triple gen_float gen_int gen_int)
      (array_size (0 -- 5)
         (map2 (fun ver ts -> { Ftvc.ver; ts }) gen_int gen_int))
      gen_kind)

let prop_to_line_matches_json =
  QCheck.Test.make ~name:"to_line is Json.to_string of to_json" ~count:2000
    (QCheck.make ~print:Trace.to_line gen_event)
    (fun e -> Trace.to_line e = Json.to_string (Trace.to_json e))

(* The float rule as it was written before the writers: Printf's
   ["%.1f"] for integral values below 1e15, ["%.12g"] otherwise. *)
let prop_float_format =
  QCheck.Test.make ~name:"Json floats: the %.1f / %.12g rule"
    ~count:2000
    (QCheck.make ~print:string_of_float gen_float)
    (fun x ->
      Json.to_string (Json.Float x)
      = (if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
         else Printf.sprintf "%.12g" x))

let prop_int_format =
  QCheck.Test.make ~name:"Json ints print as string_of_int" ~count:2000
    (QCheck.make ~print:string_of_int gen_int)
    (fun n -> Json.to_string (Json.Int n) = string_of_int n)

let test_json_ints () =
  List.iter
    (fun (n, s) -> Alcotest.(check string) s s (Json.to_string (Json.Int n)))
    [
      (0, "0");
      (7, "7");
      (-1, "-1");
      (-10, "-10");
      (-305, "-305");
      (max_int, string_of_int max_int);
      (min_int, string_of_int min_int);
      (min_int, "-4611686018427387904");
    ]

let test_chrome_shape () =
  let buf = Buffer.create 256 in
  let tr = Trace.create () in
  Trace.attach tr (Trace.chrome_sink (Buffer.add_string buf));
  Trace.emit tr (ev ~pid:0 (Trace.Send { uid = 1; dst = 1 }));
  Trace.emit tr (ev ~at:2.0 ~pid:1 (Trace.Deliver { uid = 1; src = 0 }));
  Trace.emit tr (ev ~at:3.0 ~pid:1 Trace.Failure);
  Trace.emit tr (ev ~at:4.0 ~pid:1 (Trace.Restart { new_ver = 1 }));
  Trace.close tr;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "object header" true
    (String.length s > 16 && String.sub s 0 16 = {|{"traceEvents":[|});
  Alcotest.(check bool) "closed array" true
    (String.length s > 3 && String.sub s (String.length s - 3) 3 = "]}\n");
  Alcotest.(check bool) "process metadata" true (contains s "process_name");
  Alcotest.(check bool) "flow start" true (contains s {|"ph":"s"|});
  Alcotest.(check bool) "flow finish" true (contains s {|"ph":"f"|});
  Alcotest.(check bool) "down slice opens" true (contains s {|"ph":"B"|});
  Alcotest.(check bool) "down slice closes" true (contains s {|"ph":"E"|})

let test_chrome_telemetry_shape () =
  let buf = Buffer.create 256 in
  let tr = Trace.create () in
  Trace.attach tr (Trace.chrome_sink (Buffer.add_string buf));
  Trace.emit tr (ev ~at:1.0 (Trace.Span { name = "recovery"; dur = 0.25 }));
  Trace.emit tr
    (ev ~at:2.0
       (Trace.Snapshot { protocol = "dg"; values = [ ("delivered", 4.0) ] }));
  Trace.close tr;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "span is a complete slice" true
    (contains s {|"ph":"X"|});
  Alcotest.(check bool) "span carries its duration" true
    (contains s {|"dur":250.0|});
  Alcotest.(check bool) "snapshot is a counter record" true
    (contains s {|"ph":"C"|});
  Alcotest.(check bool) "counters share one track" true
    (contains s {|"name":"metrics"|})

(* --- metrics --- *)

let test_metrics_labels () =
  let reg = Metrics.registry () in
  let a0 = Metrics.Scope.create ~registry:reg ~protocol:"alpha" ~process:0 () in
  let a1 = Metrics.Scope.create ~registry:reg ~protocol:"alpha" ~process:1 () in
  let b0 = Metrics.Scope.create ~registry:reg ~protocol:"beta" ~process:0 () in
  Metrics.Scope.incr a0 "delivered";
  Metrics.Scope.incr ~by:4 a1 "delivered";
  Metrics.Scope.incr b0 "delivered";
  Alcotest.(check int) "scope get" 4 (Metrics.Scope.get a1 "delivered");
  Alcotest.(check int) "absent name is zero" 0 (Metrics.Scope.get a0 "nope");
  Alcotest.(check int) "total over all scopes" 6 (Metrics.total reg "delivered");
  Alcotest.(check int) "total filtered by protocol" 5
    (Metrics.total ~protocol:"alpha" reg "delivered");
  Alcotest.(check int) "three scopes registered" 3
    (List.length (Metrics.scopes reg));
  let l = Metrics.Scope.labels a1 in
  Alcotest.(check string) "protocol label" "alpha" l.Metrics.protocol;
  Alcotest.(check int) "process label" 1 l.Metrics.process

let test_metrics_instruments () =
  let reg = Metrics.registry () in
  let a = Metrics.Scope.create ~registry:reg ~protocol:"p" ~process:0 () in
  let b = Metrics.Scope.create ~registry:reg ~protocol:"p" ~process:1 () in
  Metrics.Scope.observe a "lat" 1.0;
  Metrics.Scope.observe a "lat" 3.0;
  Metrics.Scope.observe b "lat" 8.0;
  let agg = Metrics.aggregate reg "lat" in
  Alcotest.(check int) "agg count" 3 agg.Metrics.count;
  Alcotest.(check (float 1e-9)) "agg total" 12.0 agg.Metrics.total;
  Alcotest.(check (float 1e-9)) "agg mean" 4.0 agg.Metrics.mean;
  Alcotest.(check (float 1e-9)) "agg min" 1.0 agg.Metrics.min;
  Alcotest.(check (float 1e-9)) "agg max" 8.0 agg.Metrics.max;
  let none = Metrics.aggregate reg "absent" in
  Alcotest.(check int) "absent summary empty" 0 none.Metrics.count;
  Metrics.Scope.set_gauge a "held" 2.5;
  Alcotest.(check (float 1e-9)) "gauge read" 2.5 (Metrics.Scope.gauge a "held");
  Alcotest.(check (float 1e-9)) "gauge default" 0.0
    (Metrics.Scope.gauge b "held");
  Metrics.Scope.observe_hist a "depth" 5.0;
  Alcotest.(check bool) "histogram created" true
    (Metrics.Scope.histogram a "depth" <> None);
  Alcotest.(check bool) "histogram absent" true
    (Metrics.Scope.histogram b "depth" = None)

let test_scope_snapshot () =
  let s = Metrics.Scope.create ~protocol:"dg" ~process:0 () in
  Metrics.Scope.incr ~by:2 s "sent";
  Metrics.Scope.set_gauge s "held" 1.5;
  Metrics.Scope.observe s "lat" 2.0;
  Metrics.Scope.observe s "lat" 4.0;
  let snap = Metrics.Scope.snapshot s in
  let get k =
    match List.assoc_opt k snap with
    | Some v -> v
    | None -> Alcotest.failf "snapshot lacks %s" k
  in
  Alcotest.(check (float 1e-9)) "counter" 2.0 (get "sent");
  Alcotest.(check (float 1e-9)) "gauge" 1.5 (get "held");
  Alcotest.(check (float 1e-9)) "summary count" 2.0 (get "lat.count");
  Alcotest.(check (float 1e-9)) "summary mean" 3.0 (get "lat.mean");
  Alcotest.(check (float 1e-9)) "summary max" 4.0 (get "lat.max");
  let names = List.map fst snap in
  Alcotest.(check (list string)) "name-sorted" (List.sort compare names) names

(* A handle and a by-name [incr] count in one cell, and a handle that was
   never bumped registers nothing: no zero row in counters or snapshot. *)
let test_counter_handles () =
  let reg = Metrics.registry () in
  let s = Metrics.Scope.create ~registry:reg ~protocol:"dg" ~process:0 () in
  let sent = Metrics.Scope.counter s "sent" in
  let idle = Metrics.Scope.counter s "idle" in
  Alcotest.(check (list (pair string int))) "nothing before a bump" []
    (Metrics.Scope.counters s);
  Metrics.Scope.incr s "sent";
  Metrics.Scope.bump sent;
  Metrics.Scope.bump ~by:3 sent;
  Metrics.Scope.incr s "sent";
  let sent' = Metrics.Scope.counter s "sent" in
  Metrics.Scope.bump sent';
  Alcotest.(check (list (pair string int))) "one shared cell" [ ("sent", 7) ]
    (Metrics.Scope.counters s);
  Alcotest.(check int) "get sees handle bumps" 7 (Metrics.Scope.get s "sent");
  Alcotest.(check int) "total sees handle bumps" 7 (Metrics.total reg "sent");
  Alcotest.(check int) "an idle handle reads zero" 0 (Metrics.Scope.get s "idle");
  Alcotest.(check (list string)) "snapshot lists only what was bumped"
    [ "sent" ] (List.map fst (Metrics.Scope.snapshot s));
  Metrics.Scope.bump idle;
  Alcotest.(check (list (pair string int))) "registered on first bump"
    [ ("idle", 1); ("sent", 7) ]
    (Metrics.Scope.counters s)

(* --- recovery profiler --- *)

(* Resolve fixtures next to the test binary so both `dune runtest`
   (cwd = build sandbox) and `dune exec` (cwd = repo root) find them. *)
let fixture file =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "fixtures" file)

let test_report_golden () =
  let r =
    match
      Report.of_files
        [ fixture "telemetry.jsonl"; fixture "telemetry_baseline.jsonl" ]
    with
    | Ok r -> r
    | Error m -> Alcotest.failf "report: %s" m
  in
  Alcotest.(check int) "events" 14 r.Report.events;
  Alcotest.(check int) "no parse errors" 0 r.Report.parse_errors;
  Alcotest.(check (list string)) "no schema warnings" []
    r.Report.schema_warnings;
  Alcotest.(check int) "recoveries" 2 (Report.total_recoveries r);
  (* Faulted file: 24 deliveries over 2 s; baseline: 60 over 2 s. The
     nearest-rank quantiles over two recoveries are the two latencies. *)
  let expected_csv =
    "protocol,recoveries,latency_p50_ms,latency_p95_ms,latency_max_ms,\
     rollback_depth_hist,messages_replayed,bytes_reread,throughput_per_s,\
     baseline_per_s,overhead\n\
     dg,2,2.0,4.0,4.0,1:1 2:1,9,400,12.000,30.000,0.6000\n"
  in
  Alcotest.(check string) "csv golden" expected_csv (Report.to_csv r);
  (match List.find_opt (fun s -> s.Report.name = "handle") r.Report.spans with
  | Some s ->
      Alcotest.(check int) "handle span count" 2 s.Report.count;
      Alcotest.(check (float 1e-9)) "handle span total" 0.004 s.Report.total;
      Alcotest.(check (float 1e-9)) "handle span max" 0.003 s.Report.max_dur
  | None -> Alcotest.fail "handle span missing from the report");
  let text = Report.to_text r in
  Alcotest.(check bool) "text table has the protocol row" true
    (contains text "dg");
  Alcotest.(check bool) "text table has the span section" true
    (contains text "spans:")

let test_report_errors () =
  (match Report.of_files [] with
  | Ok _ -> Alcotest.fail "empty file list accepted"
  | Error _ -> ());
  match Report.of_files [ fixture "no_such_file.jsonl" ] with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* --- spans --- *)

exception Boom

(* A span context over [tr] whose clock counts its reads and ticks 1 ms
   per read. *)
let span_ctx tr =
  let reads = ref 0 in
  let now () =
    incr reads;
    float_of_int !reads *. 0.001
  in
  (Span.create ~tracer:tr ~now ~pid:3 (), reads)

let test_span_disabled () =
  (* A tracer that recorded into [ring] and was closed: disabled, so
     anything it emitted would have to be a bug. *)
  let ring = Trace.Ring.create () and tr = Trace.create () in
  Trace.attach tr (Trace.Ring.sink ring);
  Trace.close tr;
  let ctx, reads = span_ctx tr in
  let runs = ref 0 in
  let v = Span.with_ ctx "handle" (fun () -> incr runs; 42) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check int) "f ran once" 1 !runs;
  Alcotest.(check int) "clock never read" 0 !reads;
  Alcotest.check_raises "exception propagates" Boom (fun () ->
      Span.with_ ctx "handle" (fun () -> raise Boom));
  Alcotest.(check int) "still no clock read" 0 !reads;
  Alcotest.(check int) "nothing emitted" 0 (Trace.Ring.length ring)

let test_span_enabled () =
  let ring = Trace.Ring.create () and tr = Trace.create () in
  Trace.attach tr (Trace.Ring.sink ring);
  let ctx, _ = span_ctx tr in
  let runs = ref 0 in
  Span.with_ ctx "handle" (fun () -> incr runs);
  Alcotest.(check int) "f ran once" 1 !runs;
  Alcotest.check_raises "exception propagates" Boom (fun () ->
      Span.with_ ctx "store" (fun () -> raise Boom));
  let spans =
    List.map
      (fun e ->
        match e.Trace.kind with
        | Trace.Span { name; dur } -> (e.Trace.pid, name, dur >= 0.0)
        | _ -> Alcotest.fail "not a span")
      (Trace.Ring.to_list ring)
  in
  Alcotest.(check (list (triple int string bool)))
    "one span per call, the raising one too"
    [ (3, "handle", true); (3, "store", true) ]
    spans

(* --- golden-trace determinism --- *)

(* The recsim acceptance scenario: damani-garg, 4 processes, 2 crashes in
   the middle 80% of the default run (same derived fault seed the CLI
   uses). The engine is deterministic, so the JSONL stream must be
   byte-identical across runs. *)
let faulty_trace () =
  let buf = Buffer.create 4096 in
  let tr = Trace.create () in
  Trace.attach tr (Trace.jsonl_sink (Buffer.add_string buf));
  let faults =
    Schedule.random_crashes ~seed:101L ~n:4 ~failures:2 ~window:(50.0, 450.0)
  in
  let params = { Runner.default_params with Runner.faults; trace = tr } in
  let report = Runner.run params in
  Trace.close tr;
  (report, Buffer.contents buf)

let test_golden_determinism () =
  let r1, t1 = faulty_trace () in
  let _r2, t2 = faulty_trace () in
  Alcotest.(check bool) "trace non-empty" true (String.length t1 > 0);
  Alcotest.(check bool) "byte-identical across runs" true (String.equal t1 t2);
  let events =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match Trace.of_line l with
          | Ok e -> Some e
          | Error m -> Alcotest.failf "bad line in run trace: %s" m)
      (String.split_on_char '\n' t1)
  in
  let count name =
    List.length
      (List.filter (fun e -> Trace.kind_name e.Trace.kind = name) events)
  in
  Alcotest.(check int) "failures traced" 2 (count "failure");
  Alcotest.(check int) "restarts traced" 2 (count "restart");
  Alcotest.(check bool) "rollbacks traced" true (count "rollback" > 0);
  Alcotest.(check bool) "obsolete discards traced" true
    (count "drop_obsolete" > 0);
  List.iter
    (fun e ->
      if Trace.kind_name e.Trace.kind = "rollback" then
        Alcotest.(check int) "rollback carries full FTVC" 4
          (Array.length e.Trace.clock))
    events;
  Alcotest.(check int) "report agrees on failures" 2
    (Runner.counter r1 "failures")

let suite =
  [
    Alcotest.test_case "ring ordering and eviction" `Quick test_ring_order;
    Alcotest.test_case "null recorder" `Quick test_null_recorder;
    Alcotest.test_case "jsonl round-trip all kinds" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects garbage" `Quick test_jsonl_rejects_garbage;
    Alcotest.test_case "jsonl sink lines" `Quick test_jsonl_sink;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_shape;
    Alcotest.test_case "chrome telemetry shape" `Quick
      test_chrome_telemetry_shape;
    Alcotest.test_case "metrics label aggregation" `Quick test_metrics_labels;
    Alcotest.test_case "metrics instruments" `Quick test_metrics_instruments;
    Alcotest.test_case "scope snapshot" `Quick test_scope_snapshot;
    Alcotest.test_case "counter handles share by-name cells" `Quick
      test_counter_handles;
    Alcotest.test_case "span: disabled runs f alone" `Quick test_span_disabled;
    Alcotest.test_case "span: enabled emits one span per call" `Quick
      test_span_enabled;
    Alcotest.test_case "recovery report golden" `Quick test_report_golden;
    Alcotest.test_case "recovery report errors" `Quick test_report_errors;
    Alcotest.test_case "golden trace determinism" `Quick
      test_golden_determinism;
    Alcotest.test_case "jsonl sink: one write per line" `Quick
      test_jsonl_sink_one_write;
    Alcotest.test_case "json ints: negatives and min_int" `Quick test_json_ints;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_to_line_matches_json; prop_float_format; prop_int_format ]
