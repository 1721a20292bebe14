(* Tests of the cluster subsystem: the TCP mesh link (the shared lane
   table, plus framing, reconnection and heartbeats), the coordinator's pid
   partitioning and its refusals before any agent is dialed, and one
   end-to-end two-agent localhost cluster run with a real SIGKILL. *)

module Loop = Optimist_live.Loop
module Tcplink = Optimist_cluster.Tcplink
module Link = Optimist_live.Link
module Coordinator = Optimist_cluster.Coordinator
module Plan = Optimist_live.Plan
module Supervisor = Optimist_live.Supervisor
module Registry = Optimist_protocols.Registry
module Transport = Optimist_core.Transport
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Check = Optimist_check.Check
module Validate = Optimist_util.Validate

let tmp_counter = ref 0

let temp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optclu-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* Distinct port ranges per test so parallel alcotest runs and TIME_WAIT
   leftovers cannot collide. Derived from the test process's pid to
   survive repeated invocations on one machine. *)
let port_base =
  let counter = ref 0 in
  fun () ->
    incr counter;
    20000 + ((Unix.getpid () * 13 + !counter * 101) mod 20000)

let endpoints base n = Array.init n (fun i -> ("127.0.0.1", base + i))

(* One length-prefixed frame on a fresh connection to [ep]'s listener. *)
let inject_frame (host, port) body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let n = Bytes.length body in
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Bytes.blit body 0 out 4 n;
  ignore (Unix.write fd out 0 (4 + n));
  Unix.close fd

let tcp =
  {
    Lanes.label = "tcp link";
    fresh =
      (fun () ->
        let eps = endpoints (port_base ()) 2 in
        {
          Lanes.factory = Tcplink.factory ~endpoints:eps;
          inject = (fun ~dst body -> inject_frame eps.(dst) body);
        });
  }

let tcp_endpoint ?seq_base loop base ~me ~seed : string Link.t =
  Link.create ~retransmit_every:0.05 ?seq_base ~loop ~me ~n:2 ~seed
    (Tcplink.factory ~endpoints:(endpoints base 2))

let make_pair loop base =
  let make me seed = tcp_endpoint loop base ~me ~seed in
  let a = make 0 31L and b = make 1 32L in
  Alcotest.(check bool) "mesh connects" true
    (Link.ready a ~timeout:5.0 && Link.ready b ~timeout:5.0);
  (a, b)

let test_tcp_reconnects_after_peer_restart () =
  (* Tear the receiving end down mid-conversation and bring a new
     incarnation up on the same port: the sender's failure detector must
     rebuild the connection (visible as reconnects > 0) and control
     traffic queued across the outage must arrive exactly once. *)
  let loop = Lanes.new_loop () in
  let base = port_base () in
  let a, b = make_pair loop base in
  let got = Lanes.inbox b ~me:1 in
  Lanes.send a Transport.Control "before";
  Loop.run loop ~until:0.3;
  Alcotest.(check (list string)) "first frame arrives" [ "before" ] !got;
  Link.close b;
  (* Queued while the peer is dead: a real outage, not a quiet queue. *)
  Lanes.send a Transport.Control "during";
  Loop.run loop ~until:0.6;
  let b' = tcp_endpoint ~seq_base:1_000_000 loop base ~me:1 ~seed:37L in
  let got' = Lanes.inbox b' ~me:1 in
  Alcotest.(check bool) "mesh heals" true (Link.ready a ~timeout:5.0);
  Loop.run loop ~until:1.5;
  Alcotest.(check (list string)) "outage-spanning control arrives once"
    [ "during" ] !got';
  Alcotest.(check int) "nothing left unacked" 0 (Link.unacked_count a);
  Alcotest.(check bool) "reconnect counted" true (Lanes.stat a "reconnects" > 0);
  Link.close a;
  Link.close b'

let test_tcp_large_frame () =
  (* A payload far bigger than any single read(2) must reassemble
     through the length-prefixed framing. *)
  let loop = Lanes.new_loop () in
  let a, b = make_pair loop (port_base ()) in
  let payload = String.init 300_000 (fun i -> Char.chr (i mod 251)) in
  let got = Lanes.inbox b ~me:1 in
  Lanes.send a Transport.Control payload;
  Loop.run loop ~until:0.6;
  Alcotest.(check bool) "payload intact" true (!got = [ payload ]);
  Link.close a;
  Link.close b

let test_tcp_snapshot_has_link_metrics () =
  let loop = Lanes.new_loop () in
  let a, b = make_pair loop (port_base ()) in
  Lanes.send a Transport.Data "x";
  Loop.run loop ~until:0.8;
  let snap = Link.snapshot a in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key snap))
    [ "link.sent_data"; "link.rejected"; "link.frames_sent"; "link.bytes_sent";
      "link.connects"; "link.hb_rtt_ms.count"; "link.hb_rtt_ms.p95" ];
  Alcotest.(check bool) "heartbeats measured" true
    (List.assoc "link.hb_rtt_ms.count" snap > 0.0);
  Link.close a;
  Link.close b

let test_tcp_rejects_bad_heartbeat () =
  (* A ping from a pid outside the mesh would be ponged to that pid. *)
  let loop = Lanes.new_loop () in
  let base = port_base () in
  let a, b = make_pair loop base in
  let ping = Bytes.make 13 '\000' in
  Bytes.set ping 0 '\001';
  Bytes.set_int32_be ping 1 9l;
  inject_frame (endpoints base 2).(1) ping;
  let got = Lanes.inbox b ~me:1 in
  Lanes.send a Transport.Control "after";
  Loop.run loop ~until:0.4;
  Alcotest.(check (list string)) "still delivering" [ "after" ] !got;
  Alcotest.(check int) "ping rejected" 1 (Lanes.stat b "rejected");
  Link.close a;
  Link.close b

(* --- coordinator plumbing --- *)

let test_blocks_partition_pids () =
  Alcotest.(check (list (list int)))
    "5 over 2" [ [ 0; 1; 2 ]; [ 3; 4 ] ]
    (Coordinator.blocks ~n:5 ~k:2);
  Alcotest.(check (list (list int)))
    "4 over 4" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (Coordinator.blocks ~n:4 ~k:4);
  Alcotest.(check (list (list int)))
    "7 over 3" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]
    (Coordinator.blocks ~n:7 ~k:3)

let test_host_port_parses () =
  List.iter
    (fun (input, expect) ->
      match (Validate.host_port input, expect) with
      | Ok got, Some want ->
          Alcotest.(check (pair string int)) input want got
      | Error _, None -> ()
      | Ok _, None -> Alcotest.failf "%S accepted" input
      | Error msg, Some _ -> Alcotest.failf "%S rejected: %s" input msg)
    [
      ("localhost:7800", Some ("localhost", 7800));
      ("10.0.0.2:1", Some ("10.0.0.2", 1));
      ("host:65535", Some ("host", 65535));
      ("host:0", None);
      ("host:65536", None);
      ("host:", None);
      (":7800", None);
      ("7800", None);
      ("host:seven", None);
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A bad plan or a port range past 65535 (which [Unix.ADDR_INET] would
   wrap onto low ports) is refused before any agent is forked or dialed:
   the dialed peers below do not exist, so reaching them would fail
   differently, after seconds of retries. *)
let test_refused_before_dialing () =
  let out = Filename.concat (temp_dir ()) "refused" in
  let d = Plan.default in
  let nowhere = [ ("127.0.0.1", 9); ("127.0.0.1", 9) ] in
  List.iter
    (fun (name, run, needle) ->
      (match run () with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error msg ->
          if not (contains msg needle) then
            Alcotest.failf "%s: %S does not mention %S" name msg needle);
      Alcotest.(check bool) (name ^ ": nothing created") false
        (Sys.file_exists out))
    [
      ( "worker ports past 65535 (forked)",
        (fun () ->
          Coordinator.run_forked ~out ~worker_base:65534 ~port_base:7800
            ~agents:2 d),
        "65534..65537" );
      ( "worker ports past 65535 (dialed)",
        (fun () ->
          Coordinator.run ~out ~worker_base:65533 ~peers:nowhere d),
        "65533..65536" );
      ( "control ports past 65535",
        (fun () ->
          Coordinator.run_forked ~out ~worker_base:7900 ~port_base:65535
            ~agents:2 d),
        "65535..65536" );
      ( "invalid plan",
        (fun () ->
          Coordinator.run ~out ~worker_base:7900 ~peers:nowhere
            { d with rate = 0.0 }),
        "rate must be positive" );
      ( "sim-only protocol",
        (fun () ->
          Coordinator.run_forked ~out ~worker_base:7900 ~port_base:7800
            ~agents:2 { d with protocol = Registry.Pk }),
        "peterson-kearns" );
      ( "more agents than workers",
        (fun () ->
          Coordinator.run_forked ~out ~worker_base:7900 ~port_base:7800
            ~agents:5 d),
        "at most one per worker" );
      ( "no agents",
        (fun () -> Coordinator.run ~out ~worker_base:7900 ~peers:[] d),
        "no agents" );
    ]

(* --- end to end: two forked agents, real SIGKILL, strict lint --- *)

let lint_clean path =
  match Check.Lint.run ~only:[] ~ignore:[] path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "lint errors" 0 (Check.Lint.errors report);
      Alcotest.(check int) "lint warnings" 0 (Check.Lint.warnings report);
      Alcotest.(check int) "parse errors" 0 report.Check.Lint.parse_errors

let test_cluster_run_with_crash () =
  let out = Filename.concat (temp_dir ()) "cl" in
  let base = port_base () in
  let plan =
    {
      Plan.default with
      n = 4;
      seed = 42L;
      duration = 1.6;
      settle = 1.4;
      rate = 6.0;
      hops = 3;
      kills = [ (0.7, 1) ];
      net_faults =
        {
          Link.no_faults with
          partitions =
            [ { Link.pt_start = 0.4; pt_stop = 0.6; pt_island = [ 0; 1 ] } ];
        };
    }
  in
  match
    Coordinator.run_forked ~out ~worker_base:(base + 8) ~port_base:base
      ~agents:2 plan
  with
  | Error msg -> Alcotest.failf "cluster run failed: %s" msg
  | Ok r ->
      Alcotest.(check int) "one crash injected" 1 r.Supervisor.crashes;
      Alcotest.(check int) "every final incarnation exits clean" 4
        r.Supervisor.clean_exits;
      Alcotest.(check bool) "events recorded" true (r.Supervisor.events > 50);
      let restarted = ref false and tcp_snapshot = ref false in
      Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
        | Ok { Trace.pid = 1; kind = Trace.Restart { new_ver }; _ }
          when new_ver >= 1 ->
            restarted := true
        | Ok { Trace.kind = Trace.Snapshot { values; _ }; _ }
          when List.mem_assoc "link.frames_sent" values ->
            tcp_snapshot := true
        | _ -> ());
      Alcotest.(check bool) "killed worker restarted over TCP" true !restarted;
      Alcotest.(check bool) "link metrics snapshotted" true !tcp_snapshot;
      Alcotest.(check bool) "chrome timeline written" true
        (Sys.file_exists r.Supervisor.chrome);
      lint_clean r.Supervisor.merged;
      (* run.json records the whole fault plan, partitions included. *)
      let ic = open_in (Supervisor.run_file out) in
      let line = input_line ic in
      close_in ic;
      let summary =
        match Json.of_string line with
        | Ok j -> j
        | Error m -> Alcotest.failf "run.json unparsable: %s" m
      in
      Alcotest.(check (option string)) "transport" (Some "tcp")
        (Option.bind (Json.mem "transport" summary) Json.string_value);
      Alcotest.(check (option int)) "one partition recorded" (Some 1)
        (Option.map List.length
           (Option.bind (Json.mem "partitions" summary) Json.list_value))

let suite =
  Lanes.cases tcp
  @ [
    Alcotest.test_case "tcp link: reconnects after peer restart" `Quick
      test_tcp_reconnects_after_peer_restart;
    Alcotest.test_case "tcp link: large frame reassembly" `Quick
      test_tcp_large_frame;
    Alcotest.test_case "tcp link: snapshot carries link metrics" `Quick
      test_tcp_snapshot_has_link_metrics;
    Alcotest.test_case "tcp link: out-of-range heartbeat rejected" `Quick
      test_tcp_rejects_bad_heartbeat;
    Alcotest.test_case "coordinator: pid blocks are contiguous" `Quick
      test_blocks_partition_pids;
    Alcotest.test_case "validate: host:port endpoints" `Quick
      test_host_port_parses;
    Alcotest.test_case "coordinator: bad plans and ports refused before dialing"
      `Quick test_refused_before_dialing;
    Alcotest.test_case "two-agent cluster run with SIGKILL recovery" `Slow
      test_cluster_run_with_crash;
  ]
