(* Metric records, the set every workload reports, the result line, the
   flat records file, and [compare] over two sets of records files. *)

module Json = Optimist_obs.Json
module Samples = Timing.Samples

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (** empty unless the run was traced *)
  extra : metric list;  (** printed and recorded, not in BENCHMARK.json *)
  problems : string list;  (** failed correctness or validity checks *)
}

(* The end-to-end metrics, identical in name and meaning on every
   workload; only what counts as a message and an output differs (see
   the README). *)
let end_to_end ~(w : Window.t) ~deliver ~output ~retained =
  let p50 l = List.hd (Timing.Latency.summary l) *. 1e3 in
  [
    m "setup_s" "s" (Window.setup_s w);
    m "delivered_per_s" "msg/s" (Window.rate w);
    m "cpu_us_per_msg" "us" (Window.cpu_per_msg w *. 1e6);
    m "deliver_p50_ms" "ms" (p50 deliver);
    m "output_p50_ms" "ms" (p50 output);
    m "retained_heap_mb" "MB" retained;
  ]

(* Printed beside the end-to-end set: the tails, how many samples the
   percentiles rest on, and the host's median slowness over the windows.
   On a shared host a tail of the same commit moves with the other
   tenants by more than any useful regression bound, so the tails are
   reported, not tracked. *)
let extras ~(w : Window.t) ~deliver ~output =
  let tail name l =
    match Timing.Latency.summary l with
    | [ _; p90; p99 ] ->
        [ m (name ^ "_p90_ms") "ms" (p90 *. 1e3); m (name ^ "_p99_ms") "ms" (p99 *. 1e3) ]
    | _ -> assert false
  in
  tail "deliver" deliver @ tail "output" output
  @ [
      m "deliver_samples" "count" (float_of_int (Timing.Latency.samples deliver));
      m "output_samples" "count" (float_of_int (Timing.Latency.samples output));
      m "host.slowness" "ratio" (Window.slowness w);
    ]

(* Memory the system holds for one round's (or run's) work: the live
   heap at its end, before tear-down, less the live heap before its
   set-up. Full collections on both sides make it independent of when
   the GC last ran; they happen outside the timed window. Every round
   and run starts after a full collection, so none inherits another's
   garbage. *)
let retained_since base = Timing.live_mb () -. base

(* What each workload counts for the per-layer metrics; layers a
   workload never runs stay at zero. *)
type counts = {
  msgs : int;
  delivered : int;
  duplicates : int;
  held : int;
  discarded : int;
  rollbacks : int;
  failures : int;
  replayed : int;
  retransmits : int;
  send_errors : int;
  store_written : int;
  store_read : int;
  truncates : int;
  trace_events : int;
  trace_bytes : int;
  engine_events : int;
}

let no_counts =
  {
    msgs = 0;
    delivered = 0;
    duplicates = 0;
    held = 0;
    discarded = 0;
    rollbacks = 0;
    failures = 0;
    replayed = 0;
    retransmits = 0;
    send_errors = 0;
    store_written = 0;
    store_read = 0;
    truncates = 0;
    trace_events = 0;
    trace_bytes = 0;
    engine_events = 0;
  }

let add_counts a b =
  {
    msgs = a.msgs + b.msgs;
    delivered = a.delivered + b.delivered;
    duplicates = a.duplicates + b.duplicates;
    held = a.held + b.held;
    discarded = a.discarded + b.discarded;
    rollbacks = a.rollbacks + b.rollbacks;
    failures = a.failures + b.failures;
    replayed = a.replayed + b.replayed;
    retransmits = a.retransmits + b.retransmits;
    send_errors = a.send_errors + b.send_errors;
    store_written = a.store_written + b.store_written;
    store_read = a.store_read + b.store_read;
    truncates = a.truncates + b.truncates;
    trace_events = a.trace_events + b.trace_events;
    trace_bytes = a.trace_bytes + b.trace_bytes;
    engine_events = a.engine_events + b.engine_events;
  }

(* Process counters summed over processes (and incarnations). *)
let add_process_counters c counters =
  let get k = Option.value ~default:0 (List.assoc_opt k counters) in
  {
    c with
    delivered = c.delivered + get "delivered";
    duplicates = c.duplicates + get "duplicates_dropped";
    held = c.held + get "held";
    discarded = c.discarded + get "discarded_obsolete";
    rollbacks = c.rollbacks + get "rollbacks";
    failures = c.failures + get "failures";
    replayed = c.replayed + get "replayed";
  }

let per_layer c (w : Window.t) =
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_msg x = x /. float_of_int (max 1 c.msgs) in
  let handler_p99 =
    match Samples.quantiles Spans.handler_self [ 0.99 ] with
    | [ x ] when Float.is_finite x -> x *. 1e6
    | _ -> 0.0
  in
  let share l = m ("share." ^ Spans.name l ^ "_pct") "%" (Spans.share_pct l) in
  [
    m "handler.self_us" "us"
      (Spans.self_of Spans.Handler
      /. float_of_int (max 1 (Spans.calls_of Spans.Handler))
      *. 1e6);
    m "handler.p99_us" "us" handler_p99;
    m "send.call_us" "us" (Spans.mean_us Spans.Send);
    m "runtime.self_us_per_msg" "us" (per_msg (Spans.self_of Spans.Runtime) *. 1e6);
  ]
  @ List.map share Spans.layers
  @ [
      m "share.covered_pct" "%" (Spans.covered_pct ());
      m "idle.wall_pct" "%" (Spans.idle_pct ());
      m "process.useful_frac" "ratio"
        (ratio c.delivered (c.delivered + c.duplicates + c.discarded + c.held));
      m "process.held" "count" (float_of_int c.held);
      m "process.discarded_obsolete" "count" (float_of_int c.discarded);
      m "process.rollbacks_per_failure" "ratio" (ratio c.rollbacks c.failures);
      m "process.replayed_per_recovery" "msg" (ratio c.replayed c.failures);
      m "livenet.retransmits" "count" (float_of_int c.retransmits);
      m "livenet.send_errors" "count" (float_of_int c.send_errors);
      m "store.bytes_written_per_msg" "B/msg"
        (per_msg (float_of_int c.store_written));
      m "store.bytes_read_per_recovery" "B" (ratio c.store_read c.failures);
      m "store.truncate_calls" "count" (float_of_int c.truncates);
      m "trace.events_per_msg" "1/msg" (per_msg (float_of_int c.trace_events));
      m "trace.bytes_per_msg" "B/msg" (per_msg (float_of_int c.trace_bytes));
      m "engine.events" "count" (float_of_int c.engine_events);
      m "gc.minor_words_per_msg" "words/msg" (per_msg w.Window.minor_words);
      m "gc.promoted_words_per_msg" "words/msg" (per_msg w.Window.promoted_words);
      m "gc.major_collections" "count" (float_of_int w.Window.major_collections);
    ]

(* --- output --- *)

let num x = Printf.sprintf "%.12g" x

let print_metric mt = Printf.printf "%s %s %s\n" mt.name (num mt.value) mt.unit

let result_line ~correct ~attempted ~failed metrics =
  let field mt =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (num mt.value)
      mt.unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

let write_records path ~workload metrics =
  let record mt =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("name", Json.String mt.name);
        ("unit", Json.String mt.unit);
        ("value", Json.Float mt.value);
      ]
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string (Json.List (List.map record metrics)));
  output_char oc '\n';
  close_out oc

(* --- BENCHMARK.json --- *)

type spec = { s_name : string; s_better : string; s_bound : float }

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let names_of key j =
  match Option.bind (Json.mem key j) Json.list_value with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some l ->
      List.map
        (fun o ->
          match Option.bind (Json.mem "name" o) Json.string_value with
          | Some s -> (s, o)
          | None -> failwith ("BENCHMARK.json: unnamed entry in " ^ key))
        l

let end_to_end_specs j =
  List.map
    (fun (s_name, o) ->
      {
        s_name;
        s_better =
          Option.value ~default:"lower"
            (Option.bind (Json.mem "better" o) Json.string_value);
        s_bound =
          Option.value ~default:0.1 (Option.bind (Json.mem "bound" o) Json.to_float);
      })
    (names_of "end_to_end" j)

(* --- compare --- *)

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so these numbers match the ones the acceptance check uses. *)
let quartiles values =
  let a = Array.of_list (List.sort Float.compare values) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let load_records path =
  match Json.list_value (read_json path) with
  | None -> failwith (path ^ ": not a list of records")
  | Some l ->
      List.filter_map
        (fun r ->
          match
            ( Option.bind (Json.mem "workload" r) Json.string_value,
              Option.bind (Json.mem "name" r) Json.string_value,
              Option.bind (Json.mem "value" r) Json.to_float )
          with
          | Some w, Some n, Some v -> Some ((w, n), v)
          | _ -> None)
        l

let compare_runs ~bench a_files b_files =
  let j = read_json bench in
  let specs = end_to_end_specs j in
  let workloads = List.map fst (names_of "workloads" j) in
  let a = List.concat_map load_records a_files in
  let b = List.concat_map load_records b_files in
  let values recs key = List.filter_map (fun (k, v) -> if k = key then Some v else None) recs in
  let regressions = ref 0 in
  Printf.printf "%-12s %-16s %34s %34s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          match (values a (w, s.s_name), values b (w, s.s_name)) with
          | [], _ | _, [] -> ()
          | av, bv ->
              let a1, am, a3 = quartiles av and b1, bm, b3 = quartiles bv in
              let spread q1 q3 med = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
              let change = if am = 0.0 then 0.0 else (bm -. am) /. Float.abs am in
              let worse = if s.s_better = "higher" then -.change else change in
              let better_everywhere =
                if s.s_better = "higher" then
                  List.for_all (fun x -> List.for_all (fun y -> x > y) av) bv
                else List.for_all (fun x -> List.for_all (fun y -> x < y) av) bv
              in
              let verdict =
                if spread a1 a3 am > s.s_bound || spread b1 b3 bm > s.s_bound then
                  if better_everywhere then "better" else "unresolved"
                else if worse > s.s_bound then begin
                  incr regressions;
                  "REGRESSION"
                end
                else "ok"
              in
              let cell med q1 q3 = Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3 in
              Printf.printf "%-12s %-16s %34s %34s %+7.1f%%  %s\n" w s.s_name
                (cell am a1 a3) (cell bm b1 b3) (100.0 *. change) verdict)
        specs)
    workloads;
  !regressions
