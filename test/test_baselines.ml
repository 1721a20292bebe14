(* Tests of the Table 1 baseline protocols, driven through the runner so
   every protocol sees the same workload and fault schedule. *)

module Runner = Optimist_runner.Runner
module Registry = Optimist_protocols.Registry
module Schedule = Optimist_workload.Schedule
module Network = Optimist_net.Network

let base =
  {
    Runner.default_params with
    Runner.n = 4;
    seed = 17L;
    rate = 0.05;
    duration = 400.0;
    hops = 5;
  }

let with_failure at pid p =
  { p with Runner.faults = [ Schedule.Crash { at; pid } ] }

let run p = Runner.run p

(* --- failure-free: every protocol moves traffic and nobody recovers --- *)

let test_failure_free_all () =
  List.iter
    (fun protocol ->
      let r = run { base with Runner.protocol } in
      let name = Registry.name protocol in
      if Runner.counter r "delivered" = 0 then
        Alcotest.failf "%s delivered nothing" name;
      if Runner.counter r "restarts" <> 0 then
        Alcotest.failf "%s restarted without failures" name;
      if Runner.counter r "rollbacks" <> 0 then
        Alcotest.failf "%s rolled back without failures" name)
    Registry.all

(* --- pessimistic: recovery is local; peers never roll back; every
   delivery paid a synchronous write --- *)

let test_pessimistic () =
  let r = run (with_failure 250.0 1 { base with Runner.protocol = Registry.Pessimist }) in
  Alcotest.(check int) "one restart" 1 (Runner.counter r "restarts");
  Alcotest.(check int) "no rollbacks anywhere" 0 (Runner.counter r "rollbacks");
  Alcotest.(check bool) "blocking cost accrued" true
    (Runner.counter r "blocked_time_x1000" > 0);
  Alcotest.(check bool) "replayed the log" true (Runner.counter r "replayed" > 0)

(* --- sender-based: recovery needs peer cooperation (retransmissions) --- *)

let test_sender_based () =
  let r = run (with_failure 250.0 1 { base with Runner.protocol = Registry.Sender }) in
  Alcotest.(check int) "one restart" 1 (Runner.counter r "restarts");
  Alcotest.(check int) "no peer rollbacks" 0 (Runner.counter r "rollbacks");
  Alcotest.(check bool) "peers retransmitted" true
    (Runner.counter r "retransmitted" > 0);
  Alcotest.(check bool) "acks flowed" true
    (Runner.counter r "control_messages" > 0)

let test_sender_based_failure_free_acks () =
  let r = run { base with Runner.protocol = Registry.Sender } in
  (* Every delivery generates an ack + confirm pair. *)
  Alcotest.(check bool) "control overhead present without failures" true
    (Runner.counter r "control_messages" >= Runner.counter r "delivered")

(* --- strom-yemini: recovers, but pays conservative rollbacks that
   Damani-Garg avoids on the same schedule --- *)

let test_strom_yemini_recovers () =
  let faults =
    [
      Schedule.Crash { at = 150.0; pid = 1 };
      Schedule.Crash { at = 250.0; pid = 2 };
    ]
  in
  let p = { base with Runner.duration = 500.0; faults } in
  let sy = run { p with Runner.protocol = Registry.Sy } in
  let dg = run { p with Runner.protocol = Registry.Dg } in
  Alcotest.(check int) "sy restarts" 2 (Runner.counter sy "restarts");
  Alcotest.(check bool) "sy at least as many rollbacks as dg" true
    (Runner.counter sy "rollbacks" >= Runner.counter dg "rollbacks")

(* --- strom-yemini's information loss, deterministically: a message from
   a new incarnation reaches a peer before the announcement that ended the
   old one (a "blind jump"); the late announcement then forces a
   conservative rollback that Damani-Garg's history mechanism would have
   avoided --- *)

let test_strom_yemini_blind_jump () =
  let module Engine = Optimist_sim.Engine in
  let module SY = Optimist_protocols.Strom_yemini in
  let module Traffic = Optimist_workload.Traffic in
  let n = 3 in
  let engine = Engine.create ~seed:4L () in
  let net =
    Network.create engine
      {
        (Network.default_config ~n) with
        Network.latency = Network.Constant 2.0;
        (* announcements crawl: the blind jump happens first *)
        control_latency = Some (Network.Constant 40.0);
      }
  in
  let uid = ref 0 in
  let next_uid () = incr uid; !uid in
  let app = Traffic.app ~n Traffic.Ring in
  let procs =
    Array.init n (fun id -> SY.create ~engine ~net ~app ~id ~n ~next_uid ())
  in
  (* P0 processes something volatile and crashes; after restarting it sends
     to P1 (ring hop) from incarnation 1. *)
  ignore
    (Engine.schedule_at engine 5.0 (fun () ->
         SY.inject procs.(0) (Traffic.fresh ~key:1 ~hops:0)));
  ignore (Engine.schedule_at engine 10.0 (fun () -> SY.fail procs.(0)));
  (* restart at 30; the announcement arrives everywhere at ~70. *)
  ignore
    (Engine.schedule_at engine 31.0 (fun () ->
         SY.inject procs.(0) (Traffic.fresh ~key:2 ~hops:1)));
  Engine.run engine;
  let c1 = SY.counters procs.(1) in
  let get name =
    match List.assoc_opt name c1 with Some v -> v | None -> 0
  in
  Alcotest.(check bool) "blind jump recorded" true (get "blind_jumps" >= 1);
  Alcotest.(check bool) "conservative rollback forced" true
    (get "conservative_rollbacks" >= 1)

(* --- peterson-kearns: synchronous recovery blocks the restarting
   process until all peers acknowledge --- *)

let test_peterson_kearns () =
  let r =
    run (with_failure 200.0 1 { base with Runner.protocol = Registry.Pk })
  in
  Alcotest.(check int) "one restart" 1 (Runner.counter r "restarts");
  Alcotest.(check bool) "recovery blocked on acks" true
    (Runner.counter r "blocked_time_x1000" > 0);
  Alcotest.(check bool) "token round ran" true
    (Runner.counter r "tokens_received" >= 3)

(* --- checkpoint-only: rollbacks are not bounded by failures (domino);
   every recovery loses work permanently --- *)

let test_checkpoint_only_domino () =
  let faults =
    [
      Schedule.Crash { at = 200.0; pid = 0 };
      Schedule.Crash { at = 320.0; pid = 2 };
    ]
  in
  let p =
    {
      base with
      Runner.protocol = Registry.Cpo;
      duration = 500.0;
      rate = 0.08;
      faults;
    }
  in
  let r = run p in
  Alcotest.(check int) "restarts" 2 (Runner.counter r "restarts");
  Alcotest.(check bool) "peer rollbacks happened" true
    (Runner.counter r "rollbacks" > 0);
  Alcotest.(check bool) "work was permanently lost" true
    (Runner.counter r "lost_states" > 0)

(* --- coordinated checkpointing: every checkpoint is a blocking round,
   and a single failure rolls the whole system back to the line --- *)

let test_coordinated () =
  let p =
    with_failure 250.0 1 { base with Runner.protocol = Registry.Koo }
  in
  let r = run p in
  Alcotest.(check int) "one restart" 1 (Runner.counter r "restarts");
  (* All peers roll back to the committed line. *)
  Alcotest.(check int) "all peers rolled back" (base.Runner.n - 1)
    (Runner.counter r "rollbacks");
  Alcotest.(check bool) "work was forfeited" true
    (Runner.counter r "lost_states" > 0);
  (* Even without failures the rounds block the application. *)
  let r0 = run { base with Runner.protocol = Registry.Koo } in
  Alcotest.(check bool) "synchronization blocks failure-free" true
    (Runner.counter r0 "blocked_time_x1000" > 0);
  Alcotest.(check bool) "3(n-1) control msgs per round" true
    (Runner.counter r0 "control_messages"
    >= 3 * (base.Runner.n - 1) * (Runner.counter r0 "checkpoints" / base.Runner.n))

(* --- the comparison the paper's abstract makes: on the same schedule,
   Damani-Garg rolls back each process at most once per failure --- *)

let test_dg_minimal_rollback_bound () =
  let faults =
    [
      Schedule.Crash { at = 150.0; pid = 0 };
      Schedule.Crash { at = 250.0; pid = 1 };
      Schedule.Crash { at = 350.0; pid = 2 };
    ]
  in
  let p =
    { base with Runner.duration = 600.0; faults; Runner.protocol = Registry.Dg }
  in
  let r = run p in
  (* 3 failures, n=4: each of the other processes may roll back at most
     once per failure. *)
  Alcotest.(check bool) "rollbacks bounded by failures*(n-1)" true
    (Runner.counter r "rollbacks" <= 3 * 3)

(* --- every protocol meets the same partition: traffic across the cut is
   held until the heal, then delivered, so nothing is lost --- *)

let test_partition_all () =
  let faults =
    [
      Schedule.Partition { at = 100.0; groups = [ [ 0; 1 ]; [ 2; 3 ] ] };
      Schedule.Heal { at = 200.0 };
    ]
  in
  List.iter
    (fun protocol ->
      let name = Registry.name protocol in
      let r0 = run { base with Runner.protocol } in
      let r = run { base with Runner.protocol; faults } in
      (match List.assoc_opt "held.partition" r.Runner.r_net with
      | Some held when held > 0 -> ()
      | _ -> Alcotest.failf "%s: the partition held no traffic" name);
      Alcotest.(check int) (name ^ ": a digest per process")
        (List.length r0.Runner.r_digests)
        (List.length r.Runner.r_digests);
      Alcotest.(check int) (name ^ ": delivered as much as fault-free")
        (Runner.counter r0 "delivered")
        (Runner.counter r "delivered"))
    Registry.all

(* --- determinism of the runner itself --- *)

let test_runner_deterministic () =
  List.iter
    (fun protocol ->
      let p = with_failure 200.0 1 { base with Runner.protocol } in
      let a = run p and b = run p in
      if a.Runner.r_digests <> b.Runner.r_digests then
        Alcotest.failf "%s is not deterministic" (Registry.name protocol);
      if a.Runner.r_events <> b.Runner.r_events then
        Alcotest.failf "%s event counts differ" (Registry.name protocol))
    Registry.all

let suite =
  [
    Alcotest.test_case "failure-free: all protocols" `Quick test_failure_free_all;
    Alcotest.test_case "pessimistic logging" `Quick test_pessimistic;
    Alcotest.test_case "sender-based logging" `Quick test_sender_based;
    Alcotest.test_case "sender-based ack overhead" `Quick
      test_sender_based_failure_free_acks;
    Alcotest.test_case "strom-yemini recovers, rolls back more" `Quick
      test_strom_yemini_recovers;
    Alcotest.test_case "strom-yemini blind jump costs a conservative rollback"
      `Quick test_strom_yemini_blind_jump;
    Alcotest.test_case "peterson-kearns blocks on acks" `Quick test_peterson_kearns;
    Alcotest.test_case "checkpoint-only domino" `Quick test_checkpoint_only_domino;
    Alcotest.test_case "coordinated checkpointing costs" `Quick test_coordinated;
    Alcotest.test_case "damani-garg minimal rollback bound" `Quick
      test_dg_minimal_rollback_bound;
    Alcotest.test_case "partition and heal: all protocols" `Quick
      test_partition_all;
    Alcotest.test_case "runner determinism (all protocols)" `Quick
      test_runner_deterministic;
  ]
