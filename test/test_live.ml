(* Tests of the live runtime: the wall-clock loop, the datagram
   transport, the on-disk store, trace merging, and one end-to-end
   supervised run with a real SIGKILL. *)

module Loop = Optimist_live.Loop
module Livenet = Optimist_live.Livenet
module Store = Optimist_live.Store
module Merge = Optimist_live.Merge
module Supervisor = Optimist_live.Supervisor
module Worker = Optimist_live.Worker
module Transport = Optimist_core.Transport
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Check = Optimist_check.Check

let tmp_counter = ref 0

(* Keep paths short: AF_UNIX socket paths are limited to ~107 bytes. *)
let temp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optlive-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* --- loop --- *)

let test_loop_timers_in_order () =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let fired = ref [] in
  Loop.schedule loop ~delay:0.03 (fun () -> fired := 3 :: !fired);
  Loop.schedule loop ~delay:0.01 (fun () -> fired := 1 :: !fired);
  Loop.schedule loop ~delay:0.02 (fun () -> fired := 2 :: !fired);
  Loop.run loop ~until:0.1;
  Alcotest.(check (list int)) "fired by due time" [ 1; 2; 3 ]
    (List.rev !fired)

let test_loop_now_monotone () =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let prev = ref (Loop.now loop) in
  for _ = 1 to 100 do
    let t = Loop.now loop in
    if t < !prev then Alcotest.fail "now went backwards";
    prev := t
  done

(* --- store --- *)

let test_store_roundtrip () =
  let dir = Filename.concat (temp_dir ()) "st" in
  let st = Store.open_ dir in
  List.iter (Store.append_log st) [ "a"; "b"; "c"; "d" ];
  Store.append_checkpoint st ~position:0 100;
  Store.append_checkpoint st ~position:3 200;
  Store.write_tokens st [ 7; 8 ];
  Store.write_gen st 2;
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check (array string)) "log" [| "a"; "b"; "c"; "d" |]
    (Store.load_log st);
  Alcotest.(check (list (pair int int)))
    "checkpoints newest first"
    [ (200, 3); (100, 0) ]
    (Store.load_checkpoints st);
  Alcotest.(check (list int)) "tokens" [ 7; 8 ] (Store.load_tokens st);
  Alcotest.(check int) "gen" 2 (Store.load_gen st);
  Store.truncate_log st ~stable:2;
  Store.discard_checkpoints_after st ~position:1;
  Alcotest.(check (array string)) "truncated" [| "a"; "b" |] (Store.load_log st);
  Alcotest.(check (list (pair int int)))
    "discarded" [ (100, 0) ]
    (Store.load_checkpoints st);
  Store.close st

let test_store_torn_tail () =
  (* A SIGKILL mid-append leaves a torn trailing record; loading must
     return the complete prefix and appends must keep working. *)
  let dir = Filename.concat (temp_dir ()) "st" in
  let st = Store.open_ dir in
  Store.append_log st "one";
  Store.append_log st "two";
  Store.close st;
  let log = Filename.concat dir "log.bin" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 log in
  let bytes = Marshal.to_bytes "torn" [] in
  output_bytes oc (Bytes.sub bytes 0 (Bytes.length bytes - 3));
  close_out oc;
  let st = Store.open_ dir in
  Alcotest.(check (array string)) "torn tail dropped" [| "one"; "two" |]
    (Store.load_log st);
  Store.close st

(* --- livenet --- *)

let test_livenet_data_and_control () =
  let dir = temp_dir () in
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let a = Livenet.create ~loop ~dir ~me:0 ~n:2 ~seed:11L () in
  let b = Livenet.create ~loop ~dir ~me:1 ~n:2 ~seed:12L () in
  let got = ref [] in
  (Livenet.transport b).Transport.set_handler 1 (fun m -> got := m :: !got);
  (Livenet.transport a).Transport.set_handler 0 (fun _ -> ());
  let ta = Livenet.transport a in
  ta.Transport.send ~lane:Transport.Data ~src:0 ~dst:1 "data";
  ta.Transport.send ~lane:Transport.Control ~src:0 ~dst:1 "ctl";
  Loop.run loop ~until:0.3;
  Alcotest.(check (list string)) "both lanes delivered" [ "ctl"; "data" ]
    (List.sort compare !got);
  Alcotest.(check int) "control acked" 0 (Livenet.unacked_count a);
  Livenet.close a;
  Livenet.close b

let test_livenet_control_retransmits_to_late_peer () =
  (* A control frame sent before the destination even exists must reach
     it once it binds — the live analogue of tokens queued across
     downtime — and be delivered exactly once despite retransmission. *)
  let dir = temp_dir () in
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let a = Livenet.create ~retransmit_every:0.02 ~loop ~dir ~me:0 ~n:2 ~seed:3L () in
  (Livenet.transport a).Transport.set_handler 0 (fun _ -> ());
  (Livenet.transport a).Transport.send ~lane:Transport.Control ~src:0 ~dst:1
    "tok";
  Loop.run loop ~until:0.05;
  Alcotest.(check int) "still unacked" 1 (Livenet.unacked_count a);
  let b = Livenet.create ~loop ~dir ~me:1 ~n:2 ~seed:4L () in
  let got = ref [] in
  (Livenet.transport b).Transport.set_handler 1 (fun m -> got := m :: !got);
  Loop.run loop ~until:0.4;
  Alcotest.(check (list string)) "delivered exactly once" [ "tok" ] !got;
  Alcotest.(check int) "acked after retry" 0 (Livenet.unacked_count a);
  Livenet.close a;
  Livenet.close b

let test_livenet_data_to_dead_peer_is_dropped () =
  let dir = temp_dir () in
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let a = Livenet.create ~loop ~dir ~me:0 ~n:2 ~seed:5L () in
  (Livenet.transport a).Transport.set_handler 0 (fun _ -> ());
  (Livenet.transport a).Transport.send ~lane:Transport.Data ~src:0 ~dst:1
    "vanishes";
  Loop.run loop ~until:0.1;
  let errors = List.assoc "send_errors" (Livenet.stats a) in
  Alcotest.(check int) "counted as a wire drop" 1 errors;
  Livenet.close a

let test_livenet_one_way_partition_heals () =
  (* A sustained one-way partition (only the sender's gate is configured,
     so the reverse path stays open): control frames pile up unacked
     while the window is shut, then heal through retransmission — and the
     receiver's dedup must keep delivery exactly-once despite every
     retransmit that piled up arriving at once. *)
  let dir = temp_dir () in
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let faults =
    {
      Livenet.no_faults with
      Livenet.partitions =
        [ { Livenet.pt_start = 0.0; pt_stop = 0.25; pt_island = [ 0 ] } ];
    }
  in
  let a =
    Livenet.create ~retransmit_every:0.02 ~faults ~loop ~dir ~me:0 ~n:2
      ~seed:21L ()
  in
  let b = Livenet.create ~loop ~dir ~me:1 ~n:2 ~seed:22L () in
  let got = ref [] in
  (Livenet.transport b).Transport.set_handler 1 (fun m -> got := m :: !got);
  (Livenet.transport a).Transport.set_handler 0 (fun _ -> ());
  (Livenet.transport a).Transport.send ~lane:Transport.Control ~src:0 ~dst:1
    "t1";
  (Livenet.transport a).Transport.send ~lane:Transport.Control ~src:0 ~dst:1
    "t2";
  Loop.run loop ~until:0.15;
  Alcotest.(check int) "unacked grows while partitioned" 2
    (Livenet.unacked_count a);
  Alcotest.(check (list string)) "nothing crossed the partition" [] !got;
  Alcotest.(check bool) "sends were gated, not lost silently" true
    (List.assoc "partition_blocked" (Livenet.stats a) > 0);
  Loop.run loop ~until:0.6;
  Alcotest.(check (list string)) "delivered exactly once after heal"
    [ "t1"; "t2" ] (List.sort compare !got);
  Alcotest.(check int) "drained to zero after heal" 0
    (Livenet.unacked_count a);
  Livenet.close a;
  Livenet.close b

(* --- merge --- *)

let test_merge_orders_and_deduplicates_headers () =
  let dir = temp_dir () in
  let write name events =
    let oc = open_out (Filename.concat dir name) in
    let tr = Trace.create () in
    Trace.attach tr
      (Trace.jsonl_sink (fun line ->
           output_string oc line;
           flush oc));
    List.iter (Trace.emit tr) events;
    Trace.close tr;
    close_out oc
  in
  let ev at pid kind = { Trace.at; pid; ver = 0; clock = [||]; kind } in
  (* The Deliver at t=0.5 is written before the Send with the same stamp
     and lives in the other process's file; the merge must put the Send
     first. *)
  write "trace.0.g0.jsonl"
    [
      ev 0.5 0 (Trace.Send { uid = 9; dst = 1 });
      ev 0.9 0 (Trace.Checkpoint { position = 0 });
    ];
  write "trace.1.g0.jsonl"
    [
      ev 0.5 1 (Trace.Deliver { uid = 9; src = 0 });
      ev 0.1 1 (Trace.Log_flush { stable = 0 });
    ];
  let out = Filename.concat dir "merged.jsonl" in
  let events, dropped = Merge.run ~dir ~out in
  Alcotest.(check int) "all events merged" 4 events;
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let kinds =
    Trace.fold_file out ~init:[] ~f:(fun acc ~line:_ -> function
      | Ok e -> Trace.kind_name e.Trace.kind :: acc
      | Error msg -> Alcotest.fail msg)
    |> List.rev
  in
  Alcotest.(check (list string))
    "one header, sends before same-stamp delivers"
    [ "custom"; "log_flush"; "send"; "deliver"; "checkpoint" ]
    kinds

let write_trace dir name events =
  let oc = open_out (Filename.concat dir name) in
  let tr = Trace.create () in
  Trace.attach tr
    (Trace.jsonl_sink (fun line ->
         output_string oc line;
         flush oc));
  List.iter (Trace.emit tr) events;
  Trace.close tr;
  close_out oc

let merged_kinds dir =
  let out = Filename.concat dir "merged.jsonl" in
  let _ = Merge.run ~dir ~out in
  Trace.fold_file out ~init:[] ~f:(fun acc ~line:_ -> function
    | Ok e -> e :: acc
    | Error msg -> Alcotest.fail msg)
  |> List.rev

let test_merge_identical_timestamps_stable () =
  (* Records carrying the very same wall-clock stamp must still come out
     in a stable order: same cause rank ties break by pid, and within one
     process by emission order. *)
  let dir = temp_dir () in
  let ev at pid kind = { Trace.at; pid; ver = 0; clock = [||]; kind } in
  write_trace dir "trace.1.g0.jsonl" [ ev 0.5 1 (Trace.Checkpoint { position = 7 }) ];
  write_trace dir "trace.0.g0.jsonl"
    [
      ev 0.5 0 (Trace.Log_flush { stable = 1 });
      ev 0.5 0 (Trace.Log_flush { stable = 2 });
    ];
  let payload e =
    match e.Trace.kind with
    | Trace.Log_flush { stable } -> (e.Trace.pid, stable)
    | Trace.Checkpoint { position } -> (e.Trace.pid, position)
    | _ -> (-1, -1)
  in
  let events =
    List.filter (fun e -> Trace.schema_of_event e = None) (merged_kinds dir)
  in
  Alcotest.(check (list (pair int int)))
    "pid then emission order under an exact tie"
    [ (0, 1); (0, 2); (1, 7) ]
    (List.map payload events)

let test_merge_orders_generations_numerically () =
  (* trace.0.g10 must be read after trace.0.g2 — a lexicographic file
     sort would interleave incarnations and scramble same-stamp ties. *)
  let dir = temp_dir () in
  let ev at pid kind = { Trace.at; pid; ver = 0; clock = [||]; kind } in
  write_trace dir "trace.0.g10.jsonl" [ ev 1.0 0 (Trace.Log_flush { stable = 10 }) ];
  write_trace dir "trace.0.g2.jsonl" [ ev 1.0 0 (Trace.Log_flush { stable = 2 }) ];
  let stables =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Log_flush { stable } -> Some stable
        | _ -> None)
      (merged_kinds dir)
  in
  Alcotest.(check (list int)) "older incarnation first" [ 2; 10 ] stables

(* --- end to end: real processes, real SIGKILL --- *)

let lint_clean path =
  match Check.Lint.run ~only:[] ~ignore:[] path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "lint errors" 0 (Check.Lint.errors report);
      Alcotest.(check int) "lint warnings" 0 (Check.Lint.warnings report);
      Alcotest.(check int) "parse errors" 0 report.Check.Lint.parse_errors

let test_supervised_run_with_crash () =
  let dir = temp_dir () in
  let cfg =
    {
      Supervisor.default_cfg with
      Supervisor.dir;
      n = 3;
      seed = 42L;
      duration = 1.6;
      settle = 1.2;
      rate = 6.0;
      hops = 3;
      faults = [ (0.7, 1) ];
    }
  in
  let r = Supervisor.run cfg in
  Alcotest.(check int) "one crash injected" 1 r.Supervisor.crashes;
  Alcotest.(check int) "every final incarnation exits clean" 3
    r.Supervisor.clean_exits;
  Alcotest.(check bool) "events recorded" true (r.Supervisor.events > 50);
  (* The killed worker's successor must actually have recovered: its
     trace contains a restart of incarnation >= 1. *)
  let restarted = ref false in
  Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
    | Ok { Trace.pid = 1; kind = Trace.Restart { new_ver }; _ }
      when new_ver >= 1 ->
        restarted := true
    | _ -> ());
  Alcotest.(check bool) "worker 1 restarted" true !restarted;
  (* Telemetry over the same recovery: the successor incarnation wraps
     its catch-up in a "recovery" span and emits one snapshot with the
     recovery.* profile. Replay happens below the tracer (replayed
     deliveries are not re-traced), so the replay count is checked
     against the worker's own stats file, not against Deliver events. *)
  let rec_span = ref None and rec_snap = ref None in
  Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
    | Ok { Trace.pid = 1; kind = Trace.Span { name = "recovery"; dur }; _ } ->
        rec_span := Some dur
    | Ok { Trace.pid = 1; kind = Trace.Snapshot { values; _ }; _ }
      when List.mem_assoc "recovery.latency" values ->
        rec_snap := Some values
    | _ -> ());
  (match !rec_span with
  | Some dur ->
      Alcotest.(check bool) "recovery span latency positive" true (dur > 0.0)
  | None -> Alcotest.fail "no recovery span for the killed worker");
  (match !rec_snap with
  | None -> Alcotest.fail "no recovery snapshot for the killed worker"
  | Some values ->
      let v name =
        match List.assoc_opt name values with
        | Some x -> x
        | None -> Alcotest.failf "recovery snapshot lacks %s" name
      in
      Alcotest.(check bool) "snapshot latency positive" true
        (v "recovery.latency" > 0.0);
      Alcotest.(check (float 1e-9)) "snapshot names the generation" 1.0
        (v "gen");
      let replayed = int_of_float (v "recovery.messages_replayed") in
      let ic = open_in (Filename.concat dir "worker.1.g1.json") in
      let stats = input_line ic in
      close_in ic;
      let stats_replayed =
        match Json.of_string stats with
        | Error m -> Alcotest.failf "worker stats unparsable: %s" m
        | Ok j -> (
            match
              Option.bind (Json.mem "counters" j) (fun c ->
                  Option.bind (Json.mem "replayed" c) Json.to_int)
            with
            | Some n -> n
            | None -> Alcotest.fail "worker stats lack counters.replayed")
      in
      Alcotest.(check int) "replay count agrees with the stats file"
        stats_replayed replayed);
  Alcotest.(check bool) "chrome timeline written" true
    (Sys.file_exists r.Supervisor.chrome);
  lint_clean r.Supervisor.merged

(* Every baseline ported to the live runtime must survive a real SIGKILL
   mid-run: the successor incarnation recovers from its store, every
   final incarnation exits clean, and the merged trace passes the full
   offline rule battery in strict mode (errors and warnings both zero). *)
let baseline_survives_crash protocol () =
  let dir = temp_dir () in
  let cfg =
    {
      Supervisor.default_cfg with
      Supervisor.dir;
      n = 3;
      protocol;
      seed = 42L;
      duration = 1.6;
      settle = 1.2;
      rate = 6.0;
      hops = 3;
      faults = [ (0.7, 1) ];
    }
  in
  let r = Supervisor.run cfg in
  Alcotest.(check int) "one crash injected" 1 r.Supervisor.crashes;
  Alcotest.(check int) "every final incarnation exits clean" 3
    r.Supervisor.clean_exits;
  let restarted = ref false in
  Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
    | Ok { Trace.pid = 1; kind = Trace.Restart { new_ver }; _ }
      when new_ver >= 1 ->
        restarted := true
    | _ -> ());
  Alcotest.(check bool) "worker 1 restarted" true !restarted;
  lint_clean r.Supervisor.merged

let test_supervisor_validates () =
  let check_invalid name cfg =
    match Supervisor.validate cfg with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  check_invalid "n=1" { Supervisor.default_cfg with Supervisor.n = 1 };
  check_invalid "bad fault pid"
    { Supervisor.default_cfg with Supervisor.faults = [ (1.0, 9) ] };
  check_invalid "fault after window"
    { Supervisor.default_cfg with Supervisor.faults = [ (99.0, 0) ] };
  check_invalid "zero rate" { Supervisor.default_cfg with Supervisor.rate = 0.0 };
  check_invalid "dir overflows sun_path"
    {
      Supervisor.default_cfg with
      Supervisor.dir = Filename.concat (String.make 120 'x') "run";
    };
  (let contains hay needle =
     let nh = String.length hay and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
     go 0
   in
   match Livenet.check_dir ~dir:(String.make 120 'x') ~n:4 with
   | Ok () -> Alcotest.fail "long dir accepted"
   | Error msg ->
       Alcotest.(check bool) "error names the limit" true
         (contains msg "sun_path"));
  Supervisor.validate Supervisor.default_cfg

let suite =
  [
    Alcotest.test_case "loop: timers fire in order" `Quick
      test_loop_timers_in_order;
    Alcotest.test_case "loop: clock is monotone" `Quick test_loop_now_monotone;
    Alcotest.test_case "store: round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store: torn tail tolerated" `Quick test_store_torn_tail;
    Alcotest.test_case "livenet: data and control delivery" `Quick
      test_livenet_data_and_control;
    Alcotest.test_case "livenet: control reaches a late peer" `Quick
      test_livenet_control_retransmits_to_late_peer;
    Alcotest.test_case "livenet: data to dead peer drops" `Quick
      test_livenet_data_to_dead_peer_is_dropped;
    Alcotest.test_case "livenet: one-way partition heals exactly-once" `Quick
      test_livenet_one_way_partition_heals;
    Alcotest.test_case "merge: global order and single header" `Quick
      test_merge_orders_and_deduplicates_headers;
    Alcotest.test_case "merge: identical timestamps keep a stable order" `Quick
      test_merge_identical_timestamps_stable;
    Alcotest.test_case "merge: generations ordered numerically" `Quick
      test_merge_orders_generations_numerically;
    Alcotest.test_case "supervised run with SIGKILL recovery" `Slow
      test_supervised_run_with_crash;
    Alcotest.test_case "pessimistic survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Worker.Pessimist);
    Alcotest.test_case "sender-based survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Worker.Sender);
    Alcotest.test_case "strom-yemini survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Worker.Sy);
    Alcotest.test_case "checkpoint-only survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Worker.Cpo);
    Alcotest.test_case "coordinated survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Worker.Koo);
    Alcotest.test_case "supervisor validates parameters" `Quick
      test_supervisor_validates;
  ]
