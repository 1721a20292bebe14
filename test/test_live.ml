(* Tests of the live runtime: the wall-clock loop, the datagram
   transport, the on-disk store, trace merging, the run plan's
   validation, end-to-end supervised runs with a real SIGKILL, and
   `recsim live report' over damaged run directories. *)

module Loop = Optimist_live.Loop
module Livenet = Optimist_live.Livenet
module Store = Optimist_live.Store
module Merge = Optimist_live.Merge
module Supervisor = Optimist_live.Supervisor
module Worker = Optimist_live.Worker
module Plan = Optimist_live.Plan
module Link = Optimist_live.Link
module Registry = Optimist_protocols.Registry
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

(* A base one hour ahead pins [now] at 0 (it is clamped non-decreasing),
   so every zero-delay timer is due at the same instant and only the
   schedule order can separate them. *)
let test_loop_ties_in_schedule_order () =
  let loop = Loop.create ~base:(Unix.gettimeofday () +. 3600.0) () in
  let fired = ref [] in
  let at i () = fired := i :: !fired in
  Loop.schedule loop ~delay:0.5 (at 9);
  List.iter (fun i -> Loop.schedule loop ~delay:0.0 (at i)) [ 1; 2; 3 ];
  Loop.schedule loop ~delay:(-1.0) (at 4);
  Loop.run_once loop ~max_wait:0.0;
  Alcotest.(check (list int)) "due ties fire in schedule order" [ 1; 2; 3; 4 ]
    (List.rev !fired)

let test_loop_now_monotone () =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let prev = ref (Loop.now loop) in
  for _ = 1 to 100 do
    let t = Loop.now loop in
    if t < !prev then Alcotest.fail "now went backwards";
    prev := t
  done

(* Two pipes with a byte in each, so both read ends stay readable and
   both write ends writable until closed. *)
let with_pipes f =
  let p1 = Unix.pipe () and p2 = Unix.pipe () in
  List.iter
    (fun (_, w) -> ignore (Unix.write_substring w "x" 0 1))
    [ p1; p2 ];
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (r, w) -> Unix.close r; Unix.close w) [ p1; p2 ])
    (fun () -> f p1 p2)

(* Count the runs of each callback over one loop turn. *)
let turn loop counts =
  Array.fill counts 0 (Array.length counts) 0;
  Loop.run_once loop ~max_wait:0.0;
  Array.to_list counts

let test_loop_readable_fds () =
  with_pipes (fun (r1, _) (r2, _) ->
      let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
      let counts = Array.make 2 0 in
      let bump i () = counts.(i) <- counts.(i) + 1 in
      Loop.on_readable loop r1 (bump 0);
      Loop.on_readable loop r2 (bump 1);
      Alcotest.(check (list int)) "both served" [ 1; 1 ] (turn loop counts);
      Loop.remove_fd loop r1;
      Alcotest.(check (list int)) "removed fd never runs" [ 0; 1 ]
        (turn loop counts);
      (* A callback that removes the other fd, which is ready in the same
         turn: the removed one must not run. *)
      Loop.on_readable loop r1 (fun () ->
          bump 0 ();
          Loop.remove_fd loop r2);
      let c = turn loop counts in
      Alcotest.(check int) "remover ran" 1 (List.nth c 0);
      Alcotest.(check (list int)) "removed mid-turn, not run after" [ 1; 0 ]
        (turn loop counts))

let test_loop_writable_fds () =
  with_pipes (fun (_, w1) (_, w2) ->
      let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
      let counts = Array.make 2 0 in
      let bump i () = counts.(i) <- counts.(i) + 1 in
      Loop.on_writable loop w1 (bump 0);
      Loop.on_writable loop w2 (bump 1);
      Alcotest.(check (list int)) "both served" [ 1; 1 ] (turn loop counts);
      Loop.remove_writable loop w1;
      Alcotest.(check (list int)) "removed fd never runs" [ 0; 1 ]
        (turn loop counts);
      Loop.remove_fd loop w2;
      Alcotest.(check (list int)) "remove_fd drops the writable side too"
        [ 0; 0 ] (turn loop counts))

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

(* --- livenet: the shared lane table over Unix-domain datagrams --- *)

let uds =
  {
    Lanes.label = "livenet";
    fresh =
      (fun () ->
        let dir = temp_dir () in
        {
          Lanes.factory = Livenet.factory ~dir;
          inject =
            (fun ~dst bytes ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
              ignore
                (Unix.sendto fd bytes 0 (Bytes.length bytes) []
                   (Unix.ADDR_UNIX (Livenet.sock_path dir dst)));
              Unix.close fd);
        });
  }

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

(* Three workers, one SIGKILL of worker 1 at 0.7 s. *)
let crash_plan protocol =
  {
    Plan.default with
    protocol;
    n = 3;
    seed = 42L;
    duration = 1.6;
    settle = 1.2;
    rate = 6.0;
    hops = 3;
    kills = [ (0.7, 1) ];
  }

let run_ok ~dir plan =
  match Supervisor.run ~dir plan with
  | Ok r -> r
  | Error msg -> Alcotest.failf "live run refused: %s" msg

let test_supervised_run_with_crash () =
  let dir = temp_dir () in
  let r = run_ok ~dir (crash_plan Registry.Dg) in
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
  let r = run_ok ~dir:(temp_dir ()) (crash_plan protocol) in
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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A worker's uids stay distinct across incarnations however many sends
   one makes: the sends around 2^28, where a 28-bit sequence would carry
   into the generation, must not meet the next incarnation's first ones,
   and a sequence past the uid range fails loudly instead of wrapping. *)
let test_uid_sequence_never_carries () =
  let n = 4 and me = 1 in
  let uids =
    List.concat_map
      (fun gen ->
        List.concat_map
          (fun seq -> [ Worker.uid ~n ~me ~gen seq ])
          [ 1; 2; 3; (1 lsl 28) - 1; 1 lsl 28; (1 lsl 28) + 1; (1 lsl 28) + 2 ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "distinct across generations" (List.length uids)
    (List.length (List.sort_uniq Int.compare uids));
  List.iter
    (fun u -> Alcotest.(check int) "the worker in the low digits" me (u mod n))
    uids;
  let fails f =
    match f () with _ -> false | exception Failure _ -> true
  in
  Alcotest.(check bool) "an exhausted sequence fails loudly" true
    (fails (fun () -> Worker.uid ~n ~me ~gen:0 (1 lsl 50)));
  Alcotest.(check bool) "a generation out of range fails loudly" true
    (fails (fun () -> Worker.uid ~n ~me ~gen:(1 lsl 40) 1))

(* Every way a plan can be nonsense, one row each; an accepted row is
   the boundary next to a rejected one. *)
let test_plan_validates () =
  let d = Plan.default in
  let faults drop_rate dup_rate =
    { d with net_faults = { Link.no_faults with drop_rate; dup_rate } }
  in
  let partition pt_start pt_stop pt_island =
    {
      d with
      net_faults =
        { Link.no_faults with partitions = [ { Link.pt_start; pt_stop; pt_island } ] };
    }
  in
  List.iter
    (fun (name, plan, ok) ->
      match (Plan.validate plan, ok) with
      | Ok (), true -> ()
      | Ok (), false -> Alcotest.failf "%s accepted" name
      | Error msg, true -> Alcotest.failf "%s rejected: %s" name msg
      | Error msg, false ->
          Alcotest.(check bool) (name ^ ": one-line error") false
            (String.contains msg '\n'))
    [
      ("the default", d, true);
      ("n=1", { d with n = 1 }, false);
      ("sim-only protocol", { d with protocol = Registry.Pk }, false);
      ("zero duration", { d with duration = 0.0 }, false);
      ("negative settle", { d with settle = -0.5 }, false);
      ("zero settle", { d with settle = 0.0 }, true);
      ("zero rate", { d with rate = 0.0 }, false);
      ("zero restart delay", { d with restart_delay = 0.0 }, false);
      ("bad fault pid", { d with kills = [ (1.0, 9) ] }, false);
      ("negative fault pid", { d with kills = [ (1.0, -1) ] }, false);
      ("fault after window", { d with kills = [ (99.0, 0) ] }, false);
      ("fault at time zero", { d with kills = [ (0.0, 0) ] }, false);
      ("fault inside window", { d with kills = [ (1.0, 3) ] }, true);
      ("drop = 1.0", faults 1.0 0.0, false);
      ("dup = 1.0", faults 0.0 1.0, false);
      ("negative drop", faults (-0.1) 0.0, false);
      ("nan dup", faults 0.0 Float.nan, false);
      ("drop and dup below 1", faults 0.99 0.99, true);
      ("empty partition island", partition 0.5 1.0 [], false);
      ("island pid out of range", partition 0.5 1.0 [ 0; 4 ], false);
      ("negative island pid", partition 0.5 1.0 [ -1 ], false);
      ("reversed partition window", partition 1.0 0.5 [ 0 ], false);
      ("empty partition window", partition 0.5 0.5 [ 0 ], false);
      ("negative partition start", partition (-0.1) 0.5 [ 0 ], false);
      ("valid partition", partition 0.0 0.5 [ 0; 3 ], true);
    ]

(* The plan says nothing about where a run happens; the directory is
   checked by Supervisor.run itself, before anything is created. *)
let test_supervisor_validates () =
  let long = Filename.concat (String.make 120 'x') "run" in
  (match Supervisor.run ~dir:long Plan.default with
  | Ok _ -> Alcotest.fail "dir overflowing sun_path accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the limit" true (contains msg "sun_path"));
  Alcotest.(check bool) "nothing created" false (Sys.file_exists long);
  let dir = Filename.concat (temp_dir ()) "refused" in
  (match Supervisor.run ~dir { Plan.default with n = 1 } with
  | Ok _ -> Alcotest.fail "n=1 accepted"
  | Error _ -> ());
  Alcotest.(check bool) "invalid plan creates nothing" false
    (Sys.file_exists dir);
  match Livenet.check_dir ~dir:(String.make 120 'x') ~n:4 with
  | Ok () -> Alcotest.fail "long dir accepted"
  | Error msg ->
      Alcotest.(check bool) "check_dir names the limit" true
        (contains msg "sun_path")

(* --- `recsim live report' over damaged run directories --- *)

let recsim =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "recsim.exe"))

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let live_report dir =
  let out = Filename.temp_file "report" ".out" in
  let err = Filename.temp_file "report" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s live report %s > %s 2> %s" (Filename.quote recsim)
         (Filename.quote dir) (Filename.quote out) (Filename.quote err))
  in
  let lines = (read_lines out, read_lines err) in
  Sys.remove out;
  Sys.remove err;
  (code, lines)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* A straggler SIGKILLed after the shutdown grace can leave an empty
   stats file; a crash of the supervisor itself, an empty run.json. *)
let test_live_report_damaged_dir () =
  let dir = temp_dir () in
  write_file (Supervisor.run_file dir) "";
  (match live_report dir with
  | 2, (_, [ _ ]) -> ()
  | code, (_, err) ->
      Alcotest.failf "empty run.json: exit %d, %d stderr line(s)" code
        (List.length err));
  write_file (Supervisor.run_file dir)
    {|{"protocol":"damani-garg","n":3,"generations":[0,1,0]}|};
  write_file (Worker.stats_file ~dir ~me:0 ~gen:0) "";
  write_file (Worker.stats_file ~dir ~me:1 ~gen:1) "{not json";
  write_file (Worker.stats_file ~dir ~me:2 ~gen:0)
    {|{"digest":255,"counters":{"delivered":7}}|};
  match live_report dir with
  | 0, (out, _) ->
      let row pid =
        List.find_opt
          (fun l ->
            match String.split_on_char ' ' (String.trim l) with
            | p :: _ -> p = string_of_int pid
            | [] -> false)
          out
      in
      List.iter
        (fun pid ->
          match row pid with
          | Some l ->
              Alcotest.(check bool)
                (Printf.sprintf "pid %d: unknown row" pid)
                true (contains l "?")
          | None -> Alcotest.failf "no row for pid %d" pid)
        [ 0; 1 ];
      (match row 2 with
      | Some l ->
          Alcotest.(check bool) "pid 2: its digest" true (contains l "000000ff")
      | None -> Alcotest.fail "no row for pid 2")
  | code, (_, err) ->
      Alcotest.failf "damaged stats files: exit %d (%s)" code
        (String.concat " / " err)

(* The report lints with the rules the run's protocol declares, as
   [live run] and soak do. The fixture trips only OPT004, which
   sender-based does not declare; an unknown protocol gets every rule. *)
let test_live_report_protocol_rules () =
  let fixture =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat "fixtures" "forged_orphan_delivery.jsonl")
  in
  let dir = temp_dir () in
  write_file (Supervisor.merged_file dir)
    (In_channel.with_open_text fixture In_channel.input_all);
  List.iter
    (fun (protocol, errors) ->
      write_file (Supervisor.run_file dir)
        (Printf.sprintf {|{"protocol":%S,"n":2,"generations":[0,0]}|}
           protocol);
      match live_report dir with
      | 0, (out, _) -> (
          match
            List.find_opt (fun l -> String.starts_with ~prefix:"sanitizer:" l) out
          with
          | Some l ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s" protocol errors)
                true (contains l errors)
          | None -> Alcotest.failf "%s: no sanitizer line" protocol)
      | code, (_, err) ->
          Alcotest.failf "%s: exit %d (%s)" protocol code
            (String.concat " / " err))
    [
      ("sender-based", " 0 error(s)");
      ("damani-garg", " 1 error(s)");
      ("no-such-protocol", "every rule");
    ]

let suite =
  [
    Alcotest.test_case "loop: timers fire in order" `Quick
      test_loop_timers_in_order;
    Alcotest.test_case "loop: due ties fire in schedule order" `Quick
      test_loop_ties_in_schedule_order;
    Alcotest.test_case "loop: clock is monotone" `Quick test_loop_now_monotone;
    Alcotest.test_case "loop: readable fds served until removed" `Quick
      test_loop_readable_fds;
    Alcotest.test_case "loop: writable fds served until removed" `Quick
      test_loop_writable_fds;
    Alcotest.test_case "store: round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store: torn tail tolerated" `Quick test_store_torn_tail;
  ]
  @ Lanes.cases uds
  @ Lanes.busy_cases uds
  @ [
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
    Alcotest.test_case "plan: validate rejects nonsense, one table" `Quick
      test_plan_validates;
    Alcotest.test_case "worker uids: the sequence never carries into the generation"
      `Quick test_uid_sequence_never_carries;
    Alcotest.test_case "supervisor validates parameters" `Quick
      test_supervisor_validates;
    Alcotest.test_case "live report: empty run.json and stats files" `Quick
      test_live_report_damaged_dir;
    Alcotest.test_case "live report: lints with the protocol's rules" `Quick
      test_live_report_protocol_rules;
  ]
